//! scdsim — command-line front end to the DASH simulator: one workload on
//! one machine configuration, statistics on stdout, telemetry documents on
//! request. `scdsim --help` lists the options (`HELP` is the one copy).
//! Exit codes: 0 the run completed, 1 the run or a check failed (the
//! post-mortem is on stderr, after any requested artifact was written),
//! 2 the command line was refused (two lines naming what and why).

use bench::{app_fits, generate_app, parse_scale, parse_seed};
use scd::core::{Replacement, Scheme};
use scd::machine::{Machine, MachineConfig, ProtocolKind};
use scd::noc::FaultPlan;
use scd::trace::{Json, JsonlFileSink, PatternTable, TraceConfig, TraceEvent};

/// Exit 2 naming what was refused; the full text is `--help`'s.
fn usage_err(msg: &str) -> ! {
    eprintln!("scdsim: {msg}\nrun `scdsim --help` for the options");
    std::process::exit(2)
}

/// `value` of `flag` as a number, or exit 2 naming both.
fn num<T: std::str::FromStr>(flag: &str, value: &str) -> T {
    value
        .parse()
        .unwrap_or_else(|_| usage_err(&format!("bad {flag} `{value}`")))
}

/// A `<n>:..:<n>:<policy>` directory-organization spec (`want` spells the
/// shape out): its `N` counts and the replacement policy, or exit 2.
fn organization<const N: usize>(flag: &str, v: &str, want: &str) -> ([usize; N], Replacement) {
    let p: Vec<&str> = v.split(':').collect();
    if p.len() != N + 1 {
        usage_err(&format!("bad {flag} `{v}` (want {want})"));
    }
    let policy = Replacement::parse(p[N])
        .unwrap_or_else(|e| usage_err(&format!("bad {flag} `{v}`: {e}")));
    (std::array::from_fn(|i| num(flag, p[i])), policy)
}

const HELP: &str = r#"
scdsim — event-driven DASH multiprocessor simulator
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
                                              (default 0xD45B)
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

/// Writes `contents` to `path`, or exits 1 naming both.
fn write_file(path: &str, contents: impl AsRef<[u8]>) {
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(1)
    }
}

/// Writes the merged, cycle-ordered trace as JSONL and reports volume.
fn write_trace(machine: &Machine, events: &[TraceEvent], path: &str) {
    let (recorded, dropped) = machine.trace_counts();
    let mut text = Vec::new();
    for ev in events {
        ev.write_jsonl(&mut text);
        text.push(b'\n');
    }
    write_file(path, text);
    eprintln!(
        "trace written to {path}: {} events retained ({recorded} recorded, {dropped} \
         evicted from rings)",
        events.len()
    );
}

fn main() {
    let mut app_name = "lu".to_string();
    let mut scheme = Scheme::FullVector;
    let mut protocol = ProtocolKind::Dash;
    let mut clusters = 32usize;
    let mut ppc = 1usize;
    let mut scale = 1.0f64;
    let mut seed = 0xD45Bu64;
    let mut sparse: Option<(usize, usize, Replacement)> = None;
    let mut overflow: Option<(usize, usize, usize, Replacement)> = None;
    let mut serial = false;
    let mut contention: Option<u64> = None;
    let mut hints = false;
    let mut anatomy = false;
    let mut histogram = false;
    let mut check = false;
    let mut max_cycles: Option<u64> = None;
    let mut fault: Option<FaultPlan> = None;
    let mut watchdog = 0u64;
    let mut trace_out: Option<String> = None;
    let mut trace_buffer: Option<usize> = None;
    let mut stream_out: Option<String> = None;
    let mut stats_json: Option<String> = None;
    let mut patterns_out: Option<String> = None;
    let mut interval: u64 = 0;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let flag = a.as_str();
        let mut val = || {
            args.next()
                .unwrap_or_else(|| usage_err(&format!("{flag} needs a value")))
        };
        match flag {
            "--app" => app_name = val(),
            "--scheme" => scheme = Scheme::parse(&val()).unwrap_or_else(|e| usage_err(&e)),
            "--protocol" => {
                protocol = ProtocolKind::parse(&val()).unwrap_or_else(|e| usage_err(&e))
            }
            "--clusters" => clusters = num(flag, &val()),
            "--procs-per-cluster" => ppc = num(flag, &val()),
            "--scale" => scale = parse_scale(&val()).unwrap_or_else(|e| usage_err(&e)),
            "--seed" => seed = parse_seed(&val()).unwrap_or_else(|e| usage_err(&e)),
            "--sparse" => {
                let ([entries, ways], policy) =
                    organization(flag, &val(), "<entries>:<ways>:<lru|rand|lra>");
                sparse = Some((entries, ways, policy));
            }
            "--overflow" => {
                let ([i, wide, ways], policy) =
                    organization(flag, &val(), "<i>:<wide>:<ways>:<lru|rand|lra>");
                overflow = Some((i, wide, ways, policy));
            }
            "--serial-invalidations" => serial = true,
            "--contention" => contention = Some(num(flag, &val())),
            "--max-cycles" => max_cycles = Some(num(flag, &val())),
            "--fault" => {
                let v = val();
                fault = Some(
                    FaultPlan::parse(&v)
                        .unwrap_or_else(|e| usage_err(&format!("bad --fault `{v}`: {e}"))),
                );
            }
            "--watchdog" => watchdog = num(flag, &val()),
            "--trace-out" => trace_out = Some(val()),
            "--trace-buffer" => trace_buffer = Some(num(flag, &val())),
            "--stream-out" => stream_out = Some(val()),
            "--stats-json" => stats_json = Some(val()),
            "--patterns-out" => patterns_out = Some(val()),
            "--interval-stats" => interval = num(flag, &val()),
            "--hints" => hints = true,
            "--anatomy" => anatomy = true,
            "--histogram" => histogram = true,
            "--check" => check = true,
            "--help" | "-h" => {
                println!("{}", HELP.trim());
                return;
            }
            other => usage_err(&format!("unknown flag {other}")),
        }
    }

    let mut cfg = MachineConfig::paper_32()
        .with_scheme(scheme)
        .with_protocol(protocol);
    cfg.clusters = clusters;
    cfg.procs_per_cluster = ppc;
    cfg.serial_invalidations = serial;
    cfg.link_occupancy = contention;
    cfg.replacement_hints = hints;
    cfg.check_invariants = check;
    if let Some(n) = max_cycles {
        cfg.max_cycles = n;
    }
    cfg.fault_plan = fault;
    cfg.watchdog_cycles = watchdog;
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

    if let Err(e) = cfg.validate() {
        usage_err(&format!("refused configuration: {e}"));
    }

    let procs = cfg.processors();
    if let Err(e) = app_fits(&app_name, procs, scale) {
        usage_err(&e);
    }
    let app = generate_app(&app_name, procs, seed, scale).unwrap_or_else(|| {
        usage_err(&format!("unknown app `{app_name}` (want lu | dwf | mp3d | locusroute)"))
    });

    println!(
        "{}: {} procs ({} clusters x {}), scheme {}{}, {} shared refs",
        app.name,
        procs,
        cfg.clusters,
        cfg.procs_per_cluster,
        cfg.scheme.name(cfg.clusters),
        if protocol == ProtocolKind::Dash {
            String::new()
        } else {
            format!(", protocol {}", protocol.name())
        },
        app.shared_refs(),
    );
    // The `protocol` meta key appears only off the DASH default, so every
    // pre-protocol document (BENCH baselines included) stays byte-stable.
    let mut run_meta = Json::obj()
        .with("app", Json::Str(app.name.to_string()))
        .with("scheme", Json::Str(cfg.scheme.name(cfg.clusters)));
    if protocol != ProtocolKind::Dash {
        run_meta = run_meta.with("protocol", Json::Str(protocol.name().into()));
    }
    let run_meta = run_meta
        .with("clusters", Json::U64(cfg.clusters as u64))
        .with("procs_per_cluster", Json::U64(cfg.procs_per_cluster as u64))
        .with("seed", Json::U64(seed))
        .with("scale", Json::F64(scale));

    let wall = std::time::Instant::now();
    let mut machine = Machine::new(cfg, app.scripts());
    if let Some(path) = &stream_out {
        let sink = JsonlFileSink::create(std::path::Path::new(path)).unwrap_or_else(|e| {
            eprintln!("cannot open {path} for streaming: {e}");
            std::process::exit(1)
        });
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
        write_file(path, format!("{doc}\n"));
        eprintln!(
            "patterns written to {path}: {} blocks classified over {} events",
            table.tracked_blocks(),
            table.events(),
        );
    }
    let stats = match result {
        Ok(stats) => stats,
        Err(e) => {
            eprintln!("simulation failed ({})", e.kind());
            eprintln!("{e}");
            std::process::exit(1)
        }
    };
    if let Some(path) = &stats_json {
        let doc = stats.to_json_document(
            Some(run_meta.clone()),
            want_metrics.then(|| machine.metrics()),
            machine.attribution_json(stats.cycles),
            machine.trace_json(),
            patterns.as_ref().map(PatternTable::section_json),
        );
        write_file(path, format!("{doc}\n"));
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
