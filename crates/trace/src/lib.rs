//! scd-trace: transaction tracing, metrics registry, and machine-readable
//! run telemetry.
//!
//! The observability layer for the simulator, built on two contracts:
//!
//! * **Zero-cost when off.** A [`TraceConfig`] is inert by default (the
//!   `FaultPlan` pattern). Whoever embeds the recording side resolves
//!   `is_active()` once and gates every hook on that one flag (in
//!   `scd-machine` it is the telemetry recorder, not the engine),
//!   so a run with tracing disabled is bit-identical to one without trace
//!   hooks at all.
//! * **Stable schemas.** Trace events serialize to JSONL with a fixed
//!   envelope (`seq`, `cycle`, `cluster`, `type`, payload); run stats and
//!   metrics serialize to versioned JSON objects (`scd-run-stats/v1`,
//!   `scd-metrics/v1`) that [`replay`] can validate offline.
//!
//! Recording uses per-cluster bounded ring buffers ([`Tracer`]) merged
//! into a global cycle-ordered history, a phase-latency
//! [`MetricsRegistry`], and interval time-series snapshots.
//!
//! On top of the event stream sits the profiler: [`SpanTree`] derives
//! causal spans (txn → phase → message) from a trace, [`perfetto`]
//! exports them for `chrome://tracing` alongside folded flamegraph
//! stacks, [`Attribution`] splits traffic into scheme-relevant classes
//! under a byte/flit wire model, and [`report`] diffs two run documents
//! as a CI perf gate.
//!
//! The [`sink`] module streams the same records *during* the run — a
//! [`TraceSink`] consumes JSONL lines incrementally (a file, with explicit
//! drop accounting) in the exact
//! bytes the post-hoc exporters would produce — and [`critical`] walks a
//! [`SpanTree`] to split every transaction's latency into queueing vs
//! service time per phase with its blocking edges.
//!
//! Reading a recorded run back goes through one borrowed lexer in
//! [`json`]: documents ([`validate_stats_json`], [`compare_docs`]) keep a
//! [`Json`] tree; every trace reader — [`validate_trace`],
//! [`validate_stream`], and [`run_line`] under [`PatternTable::from_trace`],
//! `scd-telemetry spans` and `top` — folds the typed events [`TraceEvent::parse`]
//! decodes (the writer's exact bytes in a direct pass, any other spelling
//! through the lexer); [`validate_perfetto`] reads the exporter's records
//! the same two ways, and stream records are read through the flat
//! [`Fields`] view. Nothing is allocated per record the recorder wrote,
//! and [`to_perfetto`] renders its document straight into text.

#![warn(missing_docs)]

pub mod attrib;
pub mod critical;
pub mod event;
pub mod json;
pub mod metrics;
pub mod patterns;
pub mod perfetto;
pub mod pump;
pub mod replay;
pub mod report;
pub mod schema;
pub mod sink;
pub mod span;
pub mod tracer;

pub use attrib::{
    validate_attrib_json, AttribClass, AttribParams, Attribution, ClassCounters, MsgCost,
    ATTRIB_SCHEMA,
};
pub use critical::{analyze, BlockingEdge, CriticalReport, PhaseCost, TxnCost};
pub use event::{EventKind, Phase, TraceEvent, EVENT_TYPES};
pub use json::{Fields, IntoKey, Json, Key};
pub use metrics::{IntervalSnapshot, MetricsRegistry, TxnTimeline, LATENCY_BUCKET_CAP};
pub use patterns::{
    validate_patterns_json, validate_patterns_section, PatternClass, PatternTable,
    PATTERN_CLASSES,
};
pub use perfetto::{to_perfetto, validate_perfetto, PerfettoSummary};
pub use pump::StreamPump;
pub use replay::{run_line, run_lines, validate_stats_json, validate_trace, RunLine, TraceSummary};
pub use schema::{
    CRITICAL_SCHEMA, METRICS_SCHEMA, PATTERNS_SCHEMA, RUN_STATS_SCHEMA, SWEEP_SCHEMA,
};
pub use sink::{
    attrib_delta_record, event_line, extract_trace_lines, interval_record, is_event_line,
    patterns_record, run_end_record, run_meta_record, validate_stream, BufferSink,
    JsonlFileSink, StreamSummary, TraceSink,
};
pub use report::{compare_docs, doc_label, tracked_metrics, Comparison, ReportMetric};
pub use span::{MsgSpan, PhaseSpan, SpanTree, TxnSpan};
pub use tracer::{TraceConfig, Tracer};
