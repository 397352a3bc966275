//! scdsim — command-line front end to the DASH simulator: one workload on
//! one machine configuration, statistics on stdout, telemetry documents on
//! request. `scdsim --help` lists the options (`HELP` is the one copy);
//! README.md's "Exit codes" table says what each exit means.

use bench::cli::{fail, refuse, write, Args};
use bench::{generate_app, parse_scale, parse_seed};
use scd::core::{Replacement, Scheme};
use scd::machine::{Machine, MachineConfig, ProtocolKind};
use scd::noc::FaultPlan;
use scd::trace::{Json, JsonlFileSink, PatternTable, TraceConfig, TraceEvent};

/// A `<n>:..:<n>:<policy>` directory-organization spec (`want` spells the
/// shape out): its `N` counts and the replacement policy, or a refusal.
fn organization<const N: usize>(v: &str, flag: &str, want: &str) -> ([usize; N], Replacement) {
    let p: Vec<&str> = v.split(':').collect();
    if p.len() != N + 1 {
        refuse(format_args!("bad {flag} `{v}` (want {want})"));
    }
    let policy = Replacement::parse(p[N])
        .unwrap_or_else(|e| refuse(format_args!("bad {flag} `{v}`: {e}")));
    let count = |n: &str| n.parse().unwrap_or_else(|_| refuse(format_args!("bad {flag} `{n}`")));
    (std::array::from_fn(|i| count(p[i])), policy)
}

const HELP: &str = r#"scdsim — event-driven DASH multiprocessor simulator
(Gupta/Weber/Mowry ICPP'90 reproduction)

usage: scdsim [options]
  --app <lu|dwf|mp3d|locusroute>              workload (default lu)
  --scheme <full|b:I|nb:I|x:I|cv:I:R>         directory scheme (default full)
  --protocol <dash|tardis|dls>                coherence protocol backend
                                              (default dash; tardis = lease/
                                              timestamp reads, dls = direc-
                                              toryless shared LLC)
  --clusters <n>                              cluster count (default 32)
  --procs-per-cluster <n>                     processors per cluster (default 1)
  --scale <f>                                 problem scale in (0, 1] (default 1.0)
  --seed <n>                                  workload seed, decimal or 0x hex
                                              (default 0xD45B; lu and dwf
                                              ignore it)
  --sparse <entries>:<ways>:<lru|rand|lra>    sparse directory (per home)
  --overflow <i>:<wide>:<ways>:<lru|rand|lra> overflow directory
  --serial-invalidations                      SCI-style serial invalidations
  --contention <cycles>                       mesh link occupancy (queueing)
  --hints                                     send replacement hints
  --max-cycles <n>                            abort past n simulated cycles
  --fault <spec>                              inject faults, e.g.
                                              nack:0.01 | dup:0.005 |
                                              delay:0.02:200 | reorder:0.02:100
                                              (comma-separate to combine)
  --watchdog <cycles>                         fail if no op retires for n cycles
  --trace-out <path>                          write the JSONL transaction trace
                                              (lifecycle + message events;
                                              scd-telemetry spans profiles it)
  --trace-buffer <n>                          trace ring capacity per cluster
                                              (default 4096 when tracing)
  --stream-out <path>                         stream telemetry JSONL while the
                                              run executes: trace events in
                                              (cycle, seq) order, interval
                                              snapshots, attribution deltas,
                                              then a run_end record (tail -f
                                              it, watch it with scd-telemetry
                                              top, or profile it with
                                              scd-telemetry spans)
  --stats-json <path>                         write the scd-run-stats/v1
                                              document (stats + metrics +
                                              traffic attribution)
  --patterns-out <path>                       classify per-block sharing
                                              patterns (Weber/Gupta taxonomy)
                                              and write the scd-patterns/v1
                                              document: classifier + measured
                                              invalidation distribution +
                                              directory occupancy telemetry
  --interval-stats <n>                        sample traffic/retries/occupancy
                                              every n cycles, print the table
  --anatomy                                   print busy/stall breakdown
  --histogram                                 print invalidation distribution
  --check                                     verify coherence invariants
                                              (also enables the version oracle)
  --help
"#;

/// Writes the merged, cycle-ordered trace as JSONL and reports volume.
fn write_trace(machine: &Machine, events: &[TraceEvent], path: &str) {
    let (recorded, dropped) = machine.trace_counts();
    let mut text = Vec::new();
    for ev in events {
        ev.write_jsonl(&mut text);
        text.push(b'\n');
    }
    write(path, text);
    eprintln!(
        "trace written to {path}: {} events retained ({recorded} recorded, {dropped} \
         evicted from rings)",
        events.len()
    );
}

fn main() {
    // Every machine option lands in `cfg`; `paper_32`'s values are the
    // defaults `HELP` names.
    let mut cfg = MachineConfig::paper_32();
    let mut app_name = "lu".to_string();
    let mut scale = 1.0f64;
    let mut seed = bench::RUN_SEED;
    let mut sparse: Option<(usize, usize, Replacement)> = None;
    let mut overflow: Option<(usize, usize, usize, Replacement)> = None;
    let mut scheme: Option<Scheme> = None;
    let mut anatomy = false;
    let mut histogram = false;
    let mut trace_out: Option<String> = None;
    let mut trace_buffer: Option<usize> = None;
    let mut stream_out: Option<String> = None;
    let mut stats_json: Option<String> = None;
    let mut patterns_out: Option<String> = None;
    let mut interval: u64 = 0;

    let mut args = Args::new("scdsim", HELP);
    while let Some(arg) = args.next() {
        let flag = arg.as_str();
        match flag {
            "--app" => app_name = args.value(),
            "--scheme" => scheme = Some(args.parse_with(Scheme::parse)),
            "--protocol" => cfg.protocol = args.parse_with(ProtocolKind::parse),
            "--clusters" => cfg.clusters = args.parse(),
            "--procs-per-cluster" => cfg.procs_per_cluster = args.parse(),
            "--scale" => scale = args.parse_with(parse_scale),
            "--seed" => seed = args.parse_with(parse_seed),
            "--sparse" => {
                let ([entries, ways], policy) =
                    organization(&args.value(), flag, "<entries>:<ways>:<lru|rand|lra>");
                sparse = Some((entries, ways, policy));
            }
            "--overflow" => {
                let ([i, wide, ways], policy) =
                    organization(&args.value(), flag, "<i>:<wide>:<ways>:<lru|rand|lra>");
                overflow = Some((i, wide, ways, policy));
            }
            "--serial-invalidations" => cfg.serial_invalidations = true,
            "--contention" => cfg.link_occupancy = Some(args.parse()),
            "--max-cycles" => cfg.max_cycles = args.parse(),
            "--fault" => {
                let bad = |v: &str, e| format!("bad --fault `{v}`: {e}");
                let plan = args.parse_with(|v| FaultPlan::parse(v).map_err(|e| bad(v, e)));
                cfg.fault_plan = Some(plan);
            }
            "--watchdog" => cfg.watchdog_cycles = args.parse(),
            "--trace-out" => trace_out = Some(args.value()),
            "--trace-buffer" => trace_buffer = Some(args.parse()),
            "--stream-out" => stream_out = Some(args.value()),
            "--stats-json" => stats_json = Some(args.value()),
            "--patterns-out" => patterns_out = Some(args.value()),
            "--interval-stats" => interval = args.parse(),
            "--hints" => cfg.replacement_hints = true,
            "--anatomy" => anatomy = true,
            "--histogram" => histogram = true,
            "--check" => cfg.check_invariants = true,
            other => refuse(format_args!("unknown flag {other}")),
        }
    }

    // Tracing: a trace or stream file wants the full event stream;
    // a stats file or interval sampling only needs the metrics registry.
    // Any telemetry request also turns on traffic attribution (counters
    // only — the run stays bit-identical).
    let want_metrics = stats_json.is_some() || interval > 0;
    // The sharing-pattern classifier consumes txn_begin/inval events, so
    // --patterns-out implies full event recording and the patterns flag.
    let want_events = trace_out.is_some() || trace_buffer.is_some() || stream_out.is_some()
        || patterns_out.is_some();
    if want_events || want_metrics {
        let mut tc = if want_events {
            TraceConfig::full(trace_buffer.unwrap_or(4096))
        } else {
            TraceConfig::none()
        };
        tc.metrics = tc.metrics || want_metrics;
        tc.interval = interval;
        tc.attribution = true;
        tc.patterns = patterns_out.is_some();
        if tc.patterns && tc.interval == 0 {
            // Occupancy sampling runs at interval boundaries; give the
            // observatory a time base when the user didn't pick one.
            tc.interval = 10_000;
        }
        cfg = cfg.with_trace(tc);
    }
    if let Some((entries, ways, policy)) = sparse {
        cfg = cfg.with_sparse(entries, ways, policy);
    }
    if let Some((i, wide, ways, policy)) = overflow {
        cfg = cfg.with_overflow(i, wide, ways, policy);
    }
    // After `with_overflow`, which sets its own scheme: `validate` then
    // refuses a given scheme the overflow entries do not hold.
    if let Some(scheme) = scheme {
        cfg.scheme = scheme;
    }

    // The workload's programs are sized by this geometry: check it first.
    cfg.validate().unwrap_or_else(|e| refuse(e));
    let procs = cfg.processors();
    let app = generate_app(&app_name, procs, seed, scale).unwrap_or_else(|e| refuse(e));

    println!(
        "{}: {} procs ({} clusters x {}), scheme {}{}, {} shared refs",
        app.name,
        procs,
        cfg.clusters,
        cfg.procs_per_cluster,
        cfg.scheme.name(cfg.clusters),
        if cfg.protocol == ProtocolKind::Dash {
            String::new()
        } else {
            format!(", protocol {}", cfg.protocol.name())
        },
        app.shared_refs(),
    );
    // The `protocol` meta key appears only off the DASH default, so every
    // pre-protocol document (BENCH baselines included) stays byte-stable.
    let mut run_meta = Json::obj()
        .with("app", Json::Str(app.name.to_string()))
        .with("scheme", Json::Str(cfg.scheme.name(cfg.clusters)));
    if cfg.protocol != ProtocolKind::Dash {
        run_meta = run_meta.with("protocol", Json::Str(cfg.protocol.name().into()));
    }
    let run_meta = run_meta
        .with("clusters", Json::U64(cfg.clusters as u64))
        .with("procs_per_cluster", Json::U64(cfg.procs_per_cluster as u64))
        .with("seed", Json::U64(seed))
        .with("scale", Json::F64(scale));

    let wall = std::time::Instant::now();
    let mut machine = Machine::new(cfg, app.scripts());
    if let Some(path) = &stream_out {
        let sink = JsonlFileSink::create(std::path::Path::new(path))
            .unwrap_or_else(|e| fail(1, format_args!("cannot open {path} for streaming: {e}")));
        machine.attach_stream(Box::new(sink), Some(run_meta.clone()));
    }
    let result = machine.try_run();
    if let Some(path) = &stream_out {
        // try_run closed the stream on both exits (run_end is written even
        // when the run failed), so the file is complete here — unless the
        // sink had to shed lines, which must not pass silently.
        eprintln!("telemetry stream written to {path}");
        let shed = machine.stream_shed_lines();
        if shed > 0 {
            eprintln!("warning: {path} is truncated: the sink dropped {shed} write(s)");
        }
    }
    // The trace (which `scd-telemetry spans` profiles) matters most when
    // the run failed: write it before bailing out. One merge of the
    // retained history feeds the trace file and the classifier.
    let events = machine.trace_events();
    if let Some(path) = &trace_out {
        write_trace(&machine, &events, path);
    }
    // Online classification: the typed entry point runs the same counting
    // code the replay tool reaches through parsed lines, so the two
    // outputs are byte-identical for the same event history.
    let patterns = patterns_out.is_some().then(|| {
        let mut table = PatternTable::new();
        events.iter().for_each(|ev| table.observe(ev));
        table
    });
    if let (Some(path), Some(table)) = (&patterns_out, &patterns) {
        let doc = table.document(Some(run_meta.clone()), machine.occupancy_json());
        write(path, format!("{doc}\n"));
        eprintln!(
            "patterns written to {path}: {} blocks classified over {} events",
            table.tracked_blocks(),
            table.events(),
        );
    }
    let stats = match result {
        Ok(stats) => stats,
        Err(e) => fail(1, format_args!("simulation failed ({})\n{e}", e.kind())),
    };
    if let Some(path) = &stats_json {
        let doc = stats.to_json_document(
            Some(run_meta.clone()),
            want_metrics.then(|| machine.metrics()),
            machine.attribution_json(stats.cycles),
            machine.trace_json(),
            patterns.as_ref().map(PatternTable::section_json),
        );
        write(path, format!("{doc}\n"));
        eprintln!("stats written to {path}");
    }
    let secs = wall.elapsed().as_secs_f64();
    println!(
        "simulated {} cycles in {:.2}s wall (refs_per_sec {:.0}, events_per_sec {:.0})",
        stats.cycles,
        secs,
        stats.shared_refs() as f64 / secs,
        stats.events_delivered as f64 / secs,
    );
    println!("traffic: {}", stats.traffic);
    println!(
        "invalidation events: {} (avg {:.2}/event), L2 misses: {}, mean hops: {:.2}",
        stats.invalidations.events(),
        stats.invalidations.mean(),
        stats.l2_misses,
        stats.network.mean_hops(),
    );
    if let Some(sp) = stats.sparse {
        println!(
            "sparse directory: {} hits, {} misses, {} fills, {} replacements",
            sp.hits, sp.misses, sp.fills, sp.replacements
        );
    }
    if let Some(t) = stats.tardis {
        println!(
            "tardis: {} lease fills, {} renewals ({} declined into refetch), \
             {} write-throughs",
            t.lease_fills, t.renewals, t.renew_refetches, t.write_throughs
        );
    }
    if let Some(d) = stats.dls {
        println!("dls: {} LLC fills, {} LLC writes", d.llc_fills, d.llc_writes);
    }
    if let Some(o) = stats.overflow {
        println!(
            "overflow directory: {} promotions, {} demotions, {} displacements, {} fallbacks",
            o.promotions, o.demotions, o.displacements, o.fallback_evictions
        );
    }
    if stats.sync_ops > 0 {
        println!(
            "sync: {} ops, {} lock grants, {} lock retries",
            stats.sync_ops, stats.lock_metrics.0, stats.lock_metrics.1
        );
    }
    if stats.faults != Default::default() {
        let f = stats.faults;
        println!(
            "faults: {} nacks, {} retries, {} duplicates, {} strays dropped, \
             {} delay spikes, {} reorders",
            f.nacks, f.retries, f.duplicates, f.strays_dropped, f.delay_spikes, f.reorders
        );
    }
    if anatomy {
        let (busy, mem, sync) = stats.stalls.fractions();
        println!(
            "anatomy: {:.1}% busy, {:.1}% memory stall, {:.1}% sync stall",
            busy * 100.0,
            mem * 100.0,
            sync * 100.0
        );
        if stats.network.contention_cycles > 0 {
            println!(
                "network queueing: {} link-wait cycles",
                stats.network.contention_cycles
            );
        }
    }
    if want_metrics {
        let m = machine.metrics();
        println!(
            "latency: {} txns, read p50/p99 {}/{}, write p50/p99 {}/{}",
            m.transactions(),
            m.read_latency.percentile(0.50),
            m.read_latency.percentile(0.99),
            m.write_latency.percentile(0.50),
            m.write_latency.percentile(0.99),
        );
    }
    if interval > 0 {
        println!();
        print!("{}", machine.metrics().render_intervals());
    }
    if histogram {
        println!();
        print!(
            "{}",
            stats
                .invalidations
                .render("invalidation distribution", 60)
        );
    }
}
