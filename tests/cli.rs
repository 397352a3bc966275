//! The binaries' command-line contracts, driven through `CARGO_BIN_EXE_*`:
//! exit codes (0 ok, 1 the run or a check failed, 2 usage), what goes to
//! stdout and what to stderr, artifacts written before a failing exit, and
//! the tools consuming each other's files. Every test leaves its files in
//! a scratch directory that its failure messages name.

use scd::core::Scheme;
use scd::trace::validate_stream;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const SCDSIM: &str = env!("CARGO_BIN_EXE_scdsim");
const SWEEP: &str = env!("CARGO_BIN_EXE_scd-sweep");
const CHECK: &str = env!("CARGO_BIN_EXE_scd-check");
const TELEMETRY: &str = env!("CARGO_BIN_EXE_scd-telemetry");

fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("scd-cli-{}-{test}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Runs `bin` in `dir`, so relative artifact names land there.
fn run(bin: &str, dir: &Path, args: &[&str]) -> Output {
    Command::new(bin)
        .current_dir(dir)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("spawn {bin}: {e}"))
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// `bin args` exits `code`; on `code` 1 or 2 its stderr says `needle`.
#[track_caller]
fn expect(bin: &str, dir: &Path, args: &[&str], code: i32, needle: &str) -> Output {
    let out = run(bin, dir, args);
    let name = Path::new(bin).file_name().unwrap().to_string_lossy();
    assert_eq!(
        out.status.code(),
        Some(code),
        "{name} {} (in {})\nstderr: {}",
        args.join(" "),
        dir.display(),
        stderr(&out)
    );
    assert!(
        stderr(&out).contains(needle),
        "{name} {} (in {}): stderr lacks `{needle}`:\n{}",
        args.join(" "),
        dir.display(),
        stderr(&out)
    );
    out
}

/// A refusal is exactly two stderr lines: the reason, then the `--help`
/// of `command` (a binary, or a binary and its subcommand).
#[track_caller]
fn refused_in_two_lines(out: &Output, command: &str) {
    let text = stderr(out);
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2, "{command}: {text}");
    assert_eq!(lines[1], format!("run `{command} --help` for the options"), "{text}");
}

#[test]
fn help_is_stdout_and_exit_0_for_every_binary() {
    let dir = scratch("help");
    for bin in [SCDSIM, SWEEP, CHECK, TELEMETRY] {
        let out = expect(bin, &dir, &["--help"], 0, "");
        assert!(stdout(&out).contains("usage: "), "{bin}: {}", stdout(&out));
        assert!(out.stderr.is_empty(), "{bin}: {}", stderr(&out));
    }
    for sub in ["validate", "patterns", "spans", "report", "top"] {
        let out = expect(TELEMETRY, &dir, &[sub, "--help"], 0, "");
        assert!(stdout(&out).contains(&format!("usage: scd-telemetry {sub}")));
    }
}

/// The help texts quote the default run seed that `bench::RUN_SEED` sets.
#[test]
fn help_texts_quote_the_run_seed() {
    let dir = scratch("help-seed");
    let (dec, hex) = (bench::RUN_SEED, format!("0x{:X}", bench::RUN_SEED));
    let scdsim = stdout(&expect(SCDSIM, &dir, &["--help"], 0, ""));
    assert!(scdsim.contains(&format!("(default {hex};")), "{scdsim}");
    let sweep = stdout(&expect(SWEEP, &dir, &["--help"], 0, ""));
    for quoted in [format!("(default: {dec} = {hex};"), format!("seed {hex}, 32 clusters")] {
        assert!(sweep.contains(&quoted), "`{quoted}` missing:\n{sweep}");
    }
}

/// A search a bound cut short proved nothing about the states beyond it:
/// `scd-check` prints its row as `TRUNCATED`, exits 1 and names the bound
/// to raise, while the same search without the bound exits 0.
#[test]
fn scd_check_truncated_search_exits_1_naming_the_bound() {
    let dir = scratch("check-truncated");
    let one = ["--litmus", "message-passing", "--scheme", "dense", "--org", "complete"];
    let out = expect(CHECK, &dir, &one, 0, "");
    assert!(stdout(&out).ends_with(" ok\n"), "{}", stdout(&out));
    for (args, needle) in [
        ([&one[..], &["--max-states", "1"]].concat(), "1 search(es) truncated at --max-states 1"),
        ([&one[..], &["--max-depth", "0"]].concat(), "1 search(es) truncated at --max-depth 0"),
        (vec!["--litmus", "all", "--max-states", "0"], "truncated at --max-states 0"),
    ] {
        let out = expect(CHECK, &dir, &args, 1, needle);
        assert!(stdout(&out).contains("TRUNCATED"), "{}", stdout(&out));
        assert!(stderr(&out).contains("raise --max-"), "{}", stderr(&out));
    }
}

/// A delay or duplicate gap up to the litmus machine's 50,000,000-cycle
/// budget and past it ends in the litmus verdict: the explorer raises a
/// branch's budget by each gap it injects, so the wait is not reported as
/// a run past `max_cycles`.
#[test]
fn scd_check_fault_gaps_at_any_length_end_in_a_verdict() {
    let dir = scratch("check-gaps");
    let one = ["--litmus", "store-buffering", "--protocol", "dash", "--scheme", "dense", "--org", "complete"];
    for flag in ["--fault-delay", "--fault-dup"] {
        for cycles in ["49999999", "50000001", "4294967295"] {
            let out = expect(CHECK, &dir, &[&one[..], &[flag, cycles]].concat(), 0, "");
            assert!(stdout(&out).ends_with(" ok\n"), "{flag} {cycles}: {}", stdout(&out));
        }
    }
}

/// `bench::generate_app`'s refusal, which `scdsim` and `scd-sweep` print
/// alike.
const UNKNOWN_APP: &str = "unknown app `quicksort` (want lu | dwf | mp3d | locusroute)";

/// A refused command line exits 2 and names the flag and the value, not
/// the whole option list.
#[test]
fn scdsim_usage_errors_exit_2_naming_what_was_refused() {
    let dir = scratch("usage");
    for (args, needle) in [
        (&["--bogus"][..], "unknown flag --bogus"),
        (&["--clusters", "many"], "bad --clusters `many`"),
        (&["--seed"], "--seed needs a value"),
        (&["--seed", "0xZZ"], "bad seed `0xZZ`"),
        (&["--scheme", "cv:4"], "bad scheme spec `cv:4`"),
        (&["--protocol", "mesi"], "unknown protocol `mesi`"),
        (&["--sparse", "4:2"], "bad --sparse `4:2` (want <entries>:<ways>:<lru|rand|lra>)"),
        (&["--sparse", "4:2:fifo"], "bad replacement policy `fifo`"),
        (&["--overflow", "1:two:1:lru"], "bad --overflow `two`"),
        (&["--fault", "nack:2"], "bad --fault `nack:2`"),
        // A cycle bound past `FAULT_CYCLES` would wrap the delivery clock;
        // `FaultPlan::validate` refuses it, as it does a plan built in code.
        (
            &["--fault", "delay:1:18446744073709551615"],
            "scdsim: refused configuration: fault delay cycle bound = 18446744073709551615 (want 1..=4294967295)\n",
        ),
        (
            &["--fault", "delay:1:9223372036854775808"],
            "refused configuration: fault delay cycle bound = 9223372036854775808",
        ),
        (
            &["--fault", "reorder:1:18446744073709551615"],
            "refused configuration: fault reorder cycle bound = 18446744073709551615",
        ),
        (&["--app", "quicksort"], UNKNOWN_APP),
        // Geometry the constructors would assert on is refused up front
        // (`MachineConfig::validate`), as is a scale outside (0, 1].
        (&["--clusters", "0"], "refused configuration: clusters = 0"),
        (&["--procs-per-cluster", "0"], "refused configuration: procs_per_cluster = 0"),
        (&["--sparse", "0:1:lru"], "refused configuration: sparse entries:ways = 0:1"),
        (&["--sparse", "6:4:lru"], "refused configuration: sparse entries:ways = 6:4"),
        (&["--overflow", "0:4:2:lru"], "refused configuration: overflow pointer count = 0"),
        // The overflow organization runs `Dir_i NB` entries, nothing else.
        (
            &["--app", "lu", "--clusters", "8", "--scale", "0.05", "--scheme", "cv:3:2", "--overflow", "3:64:4:lru"],
            "refused configuration: scheme = Dir3CV2 under organization = overflow (its entries are \
             Dir3NB; want that scheme)",
        ),
        (
            &["--scheme", "nb:2", "--overflow", "3:64:4:lru"],
            "refused configuration: scheme = Dir2NB under organization = overflow (its entries are Dir3NB",
        ),
        // Only DASH reads the directory organization.
        (
            &["--protocol", "tardis", "--sparse", "64:4:lru"],
            "refused configuration: organization = sparse under protocol = tardis",
        ),
        (
            &["--protocol", "dls", "--overflow", "3:64:4:lru"],
            "refused configuration: organization = overflow under protocol = dls",
        ),
        (&["--scale", "-1"], "bad --scale `-1` (want 0 < f <= 1)"),
        (&["--scale", "0"], "bad --scale `0` (want 0 < f <= 1)"),
        (&["--scale", "7"], "bad --scale `7` (want 0 < f <= 1)"),
        // MP3D gives each processor an equal share of its particles.
        (
            &["--app", "mp3d", "--clusters", "256", "--procs-per-cluster", "4", "--scale", "0.1"],
            "mp3d at --scale 0.1 has 614 particles, too few for 1024 processors",
        ),
        // Sharded execution is gone, flag and all.
        (&["--shards", "2"], "unknown flag --shards"),
        // The span profile is read from a recording by `scd-telemetry spans`.
        (&["--perfetto-out", "p.json"], "unknown flag --perfetto-out"),
        (&["--folded-out", "f.txt"], "unknown flag --folded-out"),
        (&["--critical", "10"], "unknown flag --critical"),
    ] {
        let out = expect(SCDSIM, &dir, args, 2, needle);
        refused_in_two_lines(&out, "scdsim");
    }
    // `scd-sweep` meets the same library refusals, on its real grid points.
    for (args, needle) in [
        (&["--clusters", "0"][..], "refused configuration: clusters = 0"),
        (&["--apps", "quicksort"], UNKNOWN_APP),
    ] {
        let out = expect(SWEEP, &dir, args, 2, needle);
        refused_in_two_lines(&out, "scd-sweep");
    }
    // `scd-check`'s explored delay and duplicate gaps hold the same bound.
    for flag in ["--fault-delay", "--fault-dup"] {
        for cycles in ["0", "4294967296", "18446744073709551615"] {
            let needle = format!("{flag} must be a cycle count in 1..=4294967295");
            let out = expect(CHECK, &dir, &[flag, cycles], 2, &needle);
            refused_in_two_lines(&out, "scd-check");
        }
    }
    for (args, needle, command) in [
        (&[][..], "no subcommand given", "scd-telemetry"),
        (&["frobnicate"], "unknown subcommand frobnicate", "scd-telemetry"),
        (&["validate"], "no files given", "scd-telemetry validate"),
        (&["validate", "absent.json"], "cannot read absent.json", "scd-telemetry validate"),
        (&["patterns"], "no trace file given", "scd-telemetry patterns"),
        (&["spans"], "no trace or stream file given", "scd-telemetry spans"),
        (&["spans", "t.jsonl"], "nothing to write", "scd-telemetry spans"),
        (&["spans", "t.jsonl", "--critical", "x"], "bad --critical `x`", "scd-telemetry spans"),
    ] {
        let out = expect(TELEMETRY, &dir, args, 2, needle);
        refused_in_two_lines(&out, command);
    }
}

/// `Scheme::parse`, the one parser behind `scdsim --scheme` and `scd-sweep
/// --schemes`, inverts the spec syntax for every scheme the model checker's
/// scenarios are built from. (`Replacement::parse` round-trips through
/// `SparseVariant::spec` in `bench::sweep`'s unit tests.)
#[test]
fn scheme_specs_round_trip_for_every_scenario() {
    let spec = |scheme: Scheme| match scheme {
        Scheme::FullVector => "full".to_string(),
        Scheme::LimitedB { i } => format!("b:{i}"),
        Scheme::LimitedNB { i, .. } => format!("nb:{i}"),
        Scheme::Superset { i } => format!("x:{i}"),
        Scheme::CoarseVector { i, r } => format!("cv:{i}:{r}"),
    };
    let scenarios = scd::check::scenarios();
    assert!(scenarios.len() >= 13);
    for sc in scenarios {
        assert_eq!(Scheme::parse(&spec(sc.scheme)), Ok(sc.scheme), "{}", sc.label);
    }
}

/// `--seed` takes the hex form both help texts quote the default in.
#[test]
fn scdsim_seed_is_decimal_or_hex() {
    let dir = scratch("seed");
    // MP3D draws its particles from the seed; LU's references ignore it.
    let small = ["--app", "mp3d", "--clusters", "4", "--scale", "0.05", "--check", "--seed"];
    let deterministic = |seed: &str| {
        let out = expect(SCDSIM, &dir, &[&small[..], &[seed]].concat(), 0, "");
        let text = stdout(&out);
        // The one host-dependent line: wall seconds and rates.
        text.lines().filter(|l| !l.starts_with("simulated ")).collect::<Vec<_>>().join("\n")
    };
    assert_eq!(deterministic("0xD45B"), deterministic("54363"));
    assert_ne!(deterministic("0xD45B"), deterministic("7"));
}

/// A failing run exits 1 with the post-mortem on stderr, after writing
/// the trace it was asked for — it matters most then — and the trace and
/// the span profile `scd-telemetry spans` reads from it both validate.
#[test]
fn failing_runs_exit_1_with_a_post_mortem_after_writing_their_artifacts() {
    let dir = scratch("failing");
    let out = expect(
        SCDSIM,
        &dir,
        &[
            "--app", "lu", "--clusters", "8", "--scale", "0.3", "--max-cycles", "4000",
            "--trace-out", "t.jsonl",
        ],
        1,
        "simulation failed (max-cycles)",
    );
    assert!(stderr(&out).contains("exceeded max_cycles=4000"), "{}", stderr(&out));
    assert!(stderr(&out).contains("proc 0: "), "per-processor state: {}", stderr(&out));
    expect(TELEMETRY, &dir, &["spans", "t.jsonl", "--perfetto-out", "p.json"], 0, "span profile");
    let ok = expect(TELEMETRY, &dir, &["validate", "t.jsonl", "--perfetto", "p.json"], 0, "");
    assert!(stdout(&ok).contains("t.jsonl: OK") && stdout(&ok).contains("p.json: OK"));

    expect(
        SCDSIM,
        &dir,
        &[
            "--app", "lu", "--clusters", "4", "--scale", "0.2", "--fault", "nack:1.0",
            "--watchdog", "50000",
        ],
        1,
        "simulation failed (livelock-watchdog)",
    );
}

/// One recording, read back either way: a positional `.jsonl` file is a
/// trace or a stream by its first record, so `validate` checks a
/// `--stream-out` file as a stream; `patterns` and `spans` read the
/// stream as they read the trace of the same run.
#[test]
fn a_stream_reads_back_like_the_trace_of_its_run() {
    let dir = scratch("stream-or-trace");
    let record = [
        "--app", "lu", "--clusters", "4", "--scale", "0.1", "--patterns-out", "online.json",
        "--trace-out", "t.jsonl", "--stream-out", "s.jsonl",
    ];
    expect(SCDSIM, &dir, &record, 0, "0 evicted from rings");
    let ok = stdout(&expect(TELEMETRY, &dir, &["validate", "s.jsonl", "t.jsonl"], 0, ""));
    assert!(ok.contains("s.jsonl: OK — ") && ok.contains(" intervals, "), "{ok}");
    assert!(ok.contains("t.jsonl: OK — ") && ok.contains(" transactions ("), "{ok}");
    let read = |args: &[&str]| stdout(&expect(TELEMETRY, &dir, args, 0, ""));
    for file in ["s.jsonl", "t.jsonl"] {
        let replay = read(&["patterns", file, "--compare", "online.json"]);
        assert!(replay.contains("compare: OK"), "{file}: {replay}");
    }
    assert_eq!(read(&["patterns", "s.jsonl"]), read(&["patterns", "t.jsonl"]));
    assert_eq!(
        read(&["spans", "s.jsonl", "--folded-out", "s.folded", "--critical", "3"]),
        read(&["spans", "t.jsonl", "--folded-out", "t.folded", "--critical", "3"]),
    );
    let folded = |name: &str| std::fs::read(dir.join(name)).expect(name);
    assert!(folded("s.folded") == folded("t.folded"), "{}: folded stacks differ", dir.display());
    std::fs::remove_dir_all(&dir).expect("remove the scratch dir");
}

/// A sink that sheds lines must be loud: the run still succeeds, and
/// stderr says the stream is truncated and by how many writes.
#[test]
fn a_stream_sink_that_sheds_lines_is_reported() {
    let dir = scratch("shed");
    let args = ["--app", "lu", "--clusters", "8", "--scale", "0.2", "--stream-out", "/dev/full"];
    let out = expect(SCDSIM, &dir, &args, 0, "warning: /dev/full is truncated: the sink dropped ");
    assert!(stdout(&out).contains("simulated "), "the run completed: {}", stdout(&out));
}

/// `scd-telemetry patterns` reads a trace through the decoder `validate
/// --trace` uses, so it refuses what validation refuses, naming the line:
/// a `txn_begin` without `write` is not a read, and an `inval` without
/// `cause` is not filed under some made-up cause.
#[test]
fn patterns_refuses_a_trace_that_validate_refuses() {
    let dir = scratch("patterns-refuses");
    let begin = r#"{"seq":1,"cycle":10,"cluster":0,"type":"txn_begin","txn":1,"block":4,"write":true}"#;
    let no_write = r#"{"seq":2,"cycle":11,"cluster":1,"type":"txn_begin","txn":2,"block":4}"#;
    let no_cause = r#"{"seq":3,"cycle":12,"cluster":0,"type":"inval","block":4,"targets":1}"#;
    for (lines, needle) in [
        ([begin, no_write, no_cause], "line 2: missing or non-boolean `write`"),
        ([begin, no_cause, ""], "line 2: inval without `cause`"),
    ] {
        std::fs::write(dir.join("bad.jsonl"), lines.join("\n")).unwrap();
        expect(TELEMETRY, &dir, &["validate", "--trace", "bad.jsonl"], 1, needle);
        expect(TELEMETRY, &dir, &["patterns", "bad.jsonl"], 1, &format!("bad.jsonl: {needle}"));
    }
    std::fs::remove_dir_all(&dir).expect("remove the scratch dir");
}

/// The live-monitoring path: a sweep publishes progress to a stream while
/// it runs, the stream validates, and `scd-telemetry top --once` renders a
/// frame from it. A damaged copy that counts more runs done than its
/// total, and has no `sweep_end`, still renders: a full bar, no footer.
#[test]
fn top_renders_a_sweep_progress_stream() {
    let dir = scratch("top");
    expect(
        SWEEP,
        &dir,
        &[
            "--apps", "lu,mp3d", "--schemes", "full,cv:3:2", "--scale", "0.05", "--clusters", "8",
            "--jobs", "2", "--no-timing", "--stream-out", "sweep.jsonl", "--out", "sweep.json",
        ],
        0,
        "progress stream written to sweep.jsonl",
    );
    let stream = std::fs::read_to_string(dir.join("sweep.jsonl")).expect("the progress stream");
    let summary = validate_stream(&stream).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
    assert!(summary.sweep_ended && summary.sweep_runs == 4, "{summary:?}");
    let frame = stdout(&expect(TELEMETRY, &dir, &["top", "sweep.jsonl", "--once"], 0, ""));
    assert!(frame.contains("] 4/4 "), "{frame}");
    assert!(frame.contains("sweep complete: 4 runs"), "{frame}");
    let damaged: String = stream
        .lines()
        .filter(|l| !l.contains("\"type\":\"sweep_end\""))
        .map(|l| format!("{}\n", l.replace("\"completed\":4,", "\"completed\":9,")))
        .collect();
    std::fs::write(dir.join("damaged.jsonl"), damaged).expect("write the damaged copy");
    let frame = stdout(&expect(TELEMETRY, &dir, &["top", "damaged.jsonl", "--once"], 0, ""));
    assert!(frame.contains(&format!("[{}] 9/4 ", "#".repeat(40))), "{frame}");
    assert!(!frame.contains("sweep complete"), "{frame}");
    expect(TELEMETRY, &dir, &["top"], 2, "need a stream file to follow");
    std::fs::remove_dir_all(&dir).expect("remove the scratch dir");
}

/// The dashboard of a single-run stream, every line but the wall-clock
/// rates (the `cycle` line).
const LU_FRAME: &str = "\
scd-top — LU on Dir32 (32 clusters)
events       2794  |  0 nacks, 0 retry msgs, 0 txn retries, 0 replacements

latency (cycles)        p50      p90      p99      max  txns
  end-to-end               53       99      125      132   142
  issue                    18       70       95       97   142
  home_lookup              32       51       58       59   142

link traffic (flits, from attribution deltas)
    1 ->   2           194
    2 ->   3           189
    0 ->   1           185
    3 ->   4           168
    8 ->   0           144
    4 ->   5           135
    3 ->   2           108
    4 ->   3           105
    2 ->   1           104
    5 ->   6            96

sharer distribution (window 3272, 32 live entries, sample 1)
    1 sharers       23  ##############################
    6 sharers        5  ######
    7 sharers        4  #####

run complete: 3272 cycles, 2794 events recorded, 0 dropped
";

/// A finished single-run stream renders its whole frame; the same stream
/// with its last line half written (a producer caught mid-write) renders
/// the lines before it and leaves the cut one alone; a copy with lines the
/// decoder refuses says how many it refused.
#[test]
fn top_renders_a_single_run_stream_up_to_its_last_complete_line() {
    let dir = scratch("top-run");
    let record = [
        "--app", "lu", "--scale", "0.1", "--stream-out", "st.jsonl", "--patterns-out", "p.json",
        "--interval-stats", "2000",
    ];
    expect(SCDSIM, &dir, &record, 0, "");
    let frame = |file: &str| {
        let frame = stdout(&expect(TELEMETRY, &dir, &["top", file, "--once"], 0, ""));
        frame.lines().filter(|l| !l.starts_with("cycle ")).map(|l| format!("{l}\n")).collect::<String>()
    };
    assert_eq!(frame("st.jsonl"), LU_FRAME, "{}", dir.display());
    let stream = std::fs::read_to_string(dir.join("st.jsonl")).expect("the stream");
    let last = stream.trim_end().rfind('\n').expect("more than one line") + 1;
    std::fs::write(dir.join("cut.jsonl"), &stream[..last + (stream.len() - last) / 2]).expect("cut");
    let open = LU_FRAME.replace("window 3272", "window 3270");
    let open = open.replace("\nrun complete: 3272 cycles, 2794 events recorded, 0 dropped\n", "");
    assert_eq!(frame("cut.jsonl"), open, "{}", dir.display());
    // Request sends relabelled as replies are refused by the event decoder
    // and counted in the footer, not dropped without a sign.
    let relabel = |l: &str| {
        let send = l.contains("\"type\":\"msg_send\"");
        if send { l.replace("\"class\":\"requests\"", "\"class\":\"replies\"") } else { l.to_string() }
    };
    let damaged: Vec<String> = stream.lines().map(relabel).collect();
    let refused = stream.lines().zip(&damaged).filter(|(l, d)| l != d).count();
    std::fs::write(dir.join("class.jsonl"), damaged.join("\n") + "\n").expect("write the damaged copy");
    let frame = frame("class.jsonl");
    assert!(refused > 0 && frame.contains(&format!("\n\n{refused} lines refused\n")), "{frame}");
    assert!(frame.contains(&format!("events       {} ", 2794 - refused)), "{frame}");
    std::fs::remove_dir_all(&dir).expect("remove the scratch dir");
}

/// The full-size telemetry flow: a traced, fault-injected, invariant-checked
/// LU run streams live and writes every document `scdsim` can; all five
/// validate; the pattern replay equals the online classifier and the
/// stream's extracted events equal the trace file (the ring was sized so
/// nothing evicted); and three small kinds of damage are each refused with
/// the place they were found.
#[test]
#[ignore = "21 MB of trace read back six times; run in release"]
fn traced_fault_injected_lu_run_validates_and_damaged_copies_are_refused() {
    let dir = scratch("lu");
    let out = expect(
        SCDSIM,
        &dir,
        &[
            "--app", "lu", "--clusters", "16", "--seed", "11", "--check",
            "--fault", "nack:0.01,dup:0.005,delay:0.02:200", "--watchdog", "5000000",
            "--trace-out", "trace.jsonl", "--trace-buffer", "1048576",
            "--stream-out", "stream.jsonl", "--stats-json", "stats.json",
            "--patterns-out", "patterns.json", "--interval-stats", "10000",
        ],
        0,
        "0 evicted from rings",
    );
    assert!(stdout(&out).contains("\nfaults: "), "faults were injected: {}", stdout(&out));
    let spans = [
        "spans", "stream.jsonl", "--perfetto-out", "perfetto.json", "--folded-out", "folded.txt",
        "--critical", "10",
    ];
    let critical = expect(TELEMETRY, &dir, &spans, 0, "folded stacks written to folded.txt");
    assert!(stdout(&critical).starts_with("critical path: "), "{}", stdout(&critical));
    expect(
        TELEMETRY,
        &dir,
        &[
            "validate", "--trace", "trace.jsonl", "--stats", "stats.json", "--stream",
            "stream.jsonl", "--patterns", "patterns.json", "--perfetto", "perfetto.json",
        ],
        0,
        "",
    );
    let replay = expect(
        TELEMETRY,
        &dir,
        &["patterns", "trace.jsonl", "--compare", "patterns.json"],
        0,
        "",
    );
    assert!(stdout(&replay).contains("compare: OK"), "{}", stdout(&replay));
    let read = |name: &str| std::fs::read_to_string(dir.join(name)).expect(name);
    let [trace, stream, perfetto] = ["trace.jsonl", "stream.jsonl", "perfetto.json"].map(read);
    let extract = ["validate", "--extract-trace", "stream.jsonl"];
    let extracted = expect(TELEMETRY, &dir, &extract, 0, "");
    assert!(
        extracted.stdout == trace.as_bytes(),
        "{}: streamed events differ from trace.jsonl",
        dir.display()
    );

    // The stream's last two lines swapped: a record after run_end.
    let mut lines: Vec<&str> = stream.lines().collect();
    let n = lines.len();
    lines.swap(n - 2, n - 1);
    std::fs::write(dir.join("bad_stream.jsonl"), lines.join("\n") + "\n").unwrap();
    // The Perfetto document cut short of its closing braces.
    let cut = perfetto.len() - 3;
    std::fs::write(dir.join("bad_perfetto.json"), &perfetto[..cut]).unwrap();
    // One trace line twice: a repeated seq.
    let mut lines: Vec<&str> = trace.lines().collect();
    lines.insert(5, lines[4]);
    std::fs::write(dir.join("bad_trace.jsonl"), lines.join("\n") + "\n").unwrap();
    for (args, needle) in [
        (["--stream", "bad_stream.jsonl"], format!("FAIL — line {n}: record after `run_end`")),
        (["--perfetto", "bad_perfetto.json"], format!("at byte {cut}")),
        (["--trace", "bad_trace.jsonl"], "FAIL — line 6: seq ".to_string()),
    ] {
        expect(TELEMETRY, &dir, &[&["validate"], &args[..]].concat(), 1, &needle);
    }
    // 130 MB of documents: kept only when something above failed.
    std::fs::remove_dir_all(&dir).expect("remove the scratch dir");
}
