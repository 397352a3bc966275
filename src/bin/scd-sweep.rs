//! scd-sweep — deterministic parallel sweep runner.
//!
//! Runs a grid of apps × directory schemes × sparse configurations ×
//! seeds on a worker pool (`bench::sweep`) and writes the aggregated
//! `scd-sweep/v1` document. Everything except the wall-clock `timing`
//! section is byte-identical whatever `--jobs` was, so
//! `scd-sweep --no-timing` output can be `cmp`-ed across thread counts
//! (`tests/sweep.rs::jobs_1_and_jobs_4_are_byte_identical` does).
//! README.md's "Exit codes" table says what each exit means.

use bench::cli::{fail, refuse, write, Args};
use bench::{
    parse_scale, parse_seed, run_sweep_with, sweep_begin_record, sweep_document,
    sweep_end_record, write_bench_json_in, SparseVariant, SweepSpec,
};
use scd::core::Scheme;
use scd::machine::ProtocolKind;
use scd::trace::{JsonlFileSink, TraceSink};
use std::io::IsTerminal;

const HELP: &str = "\
scd-sweep: run an app x scheme x sparse x seed grid on a worker pool

usage: scd-sweep [options]

  --jobs <n>          worker threads across grid points
                      (default: all hardware threads)
  --apps <a,..>       lu,dwf,mp3d,locusroute (default: all four)
  --schemes <s,..>    full | b:I | nb:I | x:I | cv:I:R
                      (default: full,cv:3:2,b:3,nb:3 — the paper's SS5 suite)
  --sparse <v,..>     full | <factor>:<ways>:<lru|rand|lra>
                      (default: full; e.g. full,2:4:rand adds the SS6.3 point)
  --seeds <n,..>      workload seeds (default: 54363 = 0xD45B; lu and dwf
                      ignore the seed, so each extra seed repeats their runs)
  --protocol <p,..>   coherence protocol backends: dash | tardis | dls
                      (default: dash; a multi-protocol list multiplies the
                      grid so one sweep compares the families on identical
                      reference streams)
  --scale <f>         problem scale in (0, 1] (default 1.0)
  --clusters <n>      cluster count, one processor each (default 32)
  --out <path>        write the scd-sweep/v1 document (default: stdout)
  --bench-out <dir>   also write per-run BENCH_<app>_<scheme>.json points
  --stream-out <path> publish live sweep progress as JSONL while the grid
                      runs (sweep_begin, one sweep_run per finished point,
                      sweep_end; scd-telemetry top renders it live)
  --no-timing         omit the wall-clock timing section (byte-deterministic
                      output for determinism checks)
  --trajectory        shorthand for the perf-trajectory grid: all apps,
                      cv:4:4, sparse full,2:4:rand, seed 0xD45B, 32 clusters
  -h, --help          show this help
";

fn main() {
    let mut jobs = std::thread::available_parallelism().map_or(1, usize::from);
    let mut spec = SweepSpec {
        apps: bench::APP_NAMES.iter().map(|s| s.to_string()).collect(),
        schemes: vec![
            Scheme::FullVector,
            Scheme::dir_cv(3, 2),
            Scheme::dir_b(3),
            Scheme::dir_nb(3),
        ],
        sparse: vec![SparseVariant::Full],
        seeds: vec![bench::RUN_SEED],
        protocols: vec![ProtocolKind::Dash],
        scale: 1.0,
        clusters: 32,
        shards: 1,
    };
    let mut out: Option<String> = None;
    let mut bench_out: Option<String> = None;
    let mut stream_out: Option<String> = None;
    let mut timing = true;

    let mut args = Args::new("scd-sweep", HELP);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--jobs" => {
                jobs = args.parse_with(|v| match v.parse() {
                    Ok(n) if n >= 1 => Ok(n),
                    _ => Err(format!("bad --jobs `{v}` (want an integer >= 1)")),
                });
            }
            "--apps" => spec.apps = args.list(|s| Ok(s.to_string())),
            "--schemes" => spec.schemes = args.list(Scheme::parse),
            "--sparse" => spec.sparse = args.list(SparseVariant::parse),
            "--seeds" => spec.seeds = args.list(parse_seed),
            "--protocol" => spec.protocols = args.list(ProtocolKind::parse),
            "--scale" => spec.scale = args.parse_with(parse_scale),
            "--clusters" => spec.clusters = args.parse(),
            "--out" => out = Some(args.value()),
            "--bench-out" => bench_out = Some(args.value()),
            "--stream-out" => stream_out = Some(args.value()),
            "--no-timing" => timing = false,
            "--trajectory" => {
                spec = SweepSpec::trajectory(spec.scale);
                spec.sparse = vec![SparseVariant::Full, bench::CANONICAL_SPARSE];
            }
            other => refuse(format_args!("unknown flag {other}")),
        }
    }

    let points = spec.descriptors().len();
    if points == 0 {
        refuse("--protocol and --sparse leave no grid point (tardis and dls run only `full`)");
    }
    let apps = spec.generate_apps().unwrap_or_else(|e| refuse(e));

    eprintln!(
        "[scd-sweep] {points} grid points ({} apps x {} protocols x {} schemes x {} sparse \
         x {} seeds), {jobs} jobs",
        spec.apps.len(),
        spec.protocols.len(),
        spec.schemes.len(),
        spec.sparse.len(),
        spec.seeds.len(),
    );

    let mut sink: Option<JsonlFileSink> = stream_out.as_ref().map(|path| {
        JsonlFileSink::create(std::path::Path::new(path))
            .unwrap_or_else(|e| fail(1, format_args!("cannot open {path} for streaming: {e}")))
    });
    if let Some(sink) = sink.as_mut() {
        sink.emit(&sweep_begin_record(&spec, jobs).to_string());
        sink.flush();
    }
    // Live per-run progress goes to stderr only when someone is watching
    // (suppressed under redirection so logs stay clean); the stream file,
    // when requested, gets every record regardless and is flushed per run
    // so a dashboard can tail it.
    let progress_tty = std::io::stderr().is_terminal();
    let outcome = run_sweep_with(&spec, apps, jobs, &mut |p| {
        if progress_tty {
            eprintln!("[scd-sweep] {}", p.render());
        }
        if let Some(sink) = sink.as_mut() {
            sink.emit(&p.to_json().to_string());
            sink.flush();
        }
    });
    if let Some(sink) = sink.as_mut() {
        sink.emit(&sweep_end_record(&outcome).to_string());
        sink.flush();
    }
    if let Some(path) = &stream_out {
        eprintln!("[scd-sweep] progress stream written to {path}");
        let shed = sink.as_ref().map_or(0, |s| s.dropped());
        if shed > 0 {
            eprintln!("[scd-sweep] warning: {path} is truncated: the sink dropped {shed} write(s)");
        }
    }

    for run in &outcome.runs {
        eprintln!(
            "[scd-sweep] {:<40} cycles={:>10} {:>6.2}s",
            run.desc.id, run.stats.cycles, run.wall_seconds
        );
    }
    eprintln!(
        "[scd-sweep] {} runs in {:.2}s wall on {} jobs ({:.2}s serial-equivalent, {:.2}x)",
        outcome.runs.len(),
        outcome.wall_seconds,
        outcome.jobs,
        outcome.serial_seconds(),
        outcome.serial_seconds() / outcome.wall_seconds.max(f64::MIN_POSITIVE)
    );

    if let Some(dir) = bench_out {
        let dir = std::path::Path::new(&dir);
        for run in &outcome.runs {
            let app = &outcome.apps[run.desc.app_idx];
            write_bench_json_in(
                dir,
                app,
                &run.desc.scheme_label,
                &run.stats,
                run.attribution.clone(),
            );
        }
    }

    let doc = sweep_document(&outcome, &spec, timing);
    match out {
        Some(path) => {
            write(&path, format!("{doc}\n"));
            eprintln!("[scd-sweep] document written to {path}");
        }
        None => println!("{doc}"),
    }
}
