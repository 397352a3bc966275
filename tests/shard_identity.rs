//! The four-kernel shard-identity gate, as a test: for each of the
//! paper's kernels, a machine partitioned across worker threads must
//! produce the *same bytes* as the serial engine — the full
//! `scd-run-stats/v1` document (stats + metrics + attribution + trace
//! bookkeeping), the retained trace and the streamed telemetry JSONL —
//! what `scdsim --shards N --stats-json --trace-out --stream-out` writes.

use scd::apps::{dwf, locusroute, lu, mp3d, AppRun, DwfParams, LocusRouteParams, LuParams,
    Mp3dParams};
use scd::core::Scheme;
use scd::machine::{MachineConfig, ShardedMachine};
use scd::trace::{BufferSink, Json, TraceConfig};

const CLUSTERS: usize = 8;
const SEED: u64 = 0xD45B;
const SCALE: f64 = 0.05;

fn kernels() -> Vec<AppRun> {
    vec![
        lu(&LuParams::scaled(SCALE), CLUSTERS, SEED),
        dwf(&DwfParams::scaled(SCALE), CLUSTERS, SEED),
        mp3d(&Mp3dParams::scaled(SCALE), CLUSTERS, SEED),
        locusroute(&LocusRouteParams::scaled(SCALE), CLUSTERS, SEED),
    ]
}

fn config() -> MachineConfig {
    let mut cfg = MachineConfig::paper_32().with_scheme(Scheme::dir_cv(4, 4));
    cfg.clusters = CLUSTERS;
    let mut tc = TraceConfig::full(4096);
    tc.interval = 2_000;
    tc.attribution = true;
    cfg.with_trace(tc)
}

/// (full stats document, retained trace, streamed JSONL) for one kernel at
/// one shard count.
fn run(app: &AppRun, shards: usize) -> [String; 3] {
    let mut m = ShardedMachine::new(config(), app.scripts(), shards)
        .unwrap_or_else(|e| panic!("{}: {e}", app.name));
    let sink = BufferSink::new();
    let lines = sink.handle();
    m.attach_stream(
        Box::new(sink),
        Some(Json::obj().with("app", Json::Str(app.name.to_string()))),
    );
    let stats = m.try_run().unwrap_or_else(|e| panic!("{}: {e}", app.name));
    let doc = stats.to_json_document(
        None,
        Some(m.metrics()),
        m.attribution_json(stats.cycles),
        m.trace_json(),
        m.occupancy_json(),
    );
    let trace: Vec<String> = m.trace_events().iter().map(scd::trace::event_line).collect();
    let stream = lines.lock().unwrap().join("\n");
    [doc.to_string(), trace.join("\n"), stream]
}

#[test]
fn four_kernels_are_byte_identical_across_shard_counts() {
    for app in kernels() {
        let serial = run(&app, 1);
        for shards in [2, 4] {
            let sharded = run(&app, shards);
            let documents = ["stats document", "retained trace", "telemetry stream"];
            for ((what, one), n) in documents.iter().zip(&serial).zip(&sharded) {
                assert!(one == n, "{}: {what} diverged at {shards} shards", app.name);
            }
        }
    }
}
