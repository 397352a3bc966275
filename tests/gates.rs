//! Gates on the repository as a whole rather than on one crate or one
//! binary: what the engine's source may not contain, what the documents
//! may point at, and `results/` being what this build generates. The slow
//! one is ignored:
//! `cargo test --release --workspace -- --include-ignored`.

use std::path::{Path, PathBuf};

use bench::repro::{check, regenerate, Artifact, ARTIFACTS};

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("a source tree") {
        let path = entry.expect("a directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// One line of engine source: above its file's first `#[cfg(test)]`.
struct Line {
    file: PathBuf,
    number: usize,
    text: String,
}

impl std::fmt::Display for Line {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: {}", self.file.display(), self.number, self.text)
    }
}

fn engine_lines(krates: &[&str]) -> Vec<Line> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let dirs: Vec<PathBuf> = krates.iter().map(|k| root.join("crates").join(k).join("src")).collect();
    non_test_lines(&dirs)
}

/// Every line above its file's first `#[cfg(test)]`, over the Rust files
/// under `dirs`.
/// The lines above each file's first `#[cfg(test)]`, over every `.rs`
/// file under `paths` (a path may also name one file).
fn non_test_lines(paths: &[PathBuf]) -> Vec<Line> {
    let mut files = Vec::new();
    for path in paths {
        if path.is_file() {
            files.push(path.clone());
        } else {
            rust_files(path, &mut files);
        }
    }
    let mut lines = Vec::new();
    for file in files {
        let text = std::fs::read_to_string(&file).expect("readable source");
        let engine = text.lines().take_while(|l| !l.contains("#[cfg(test)]"));
        lines.extend(engine.enumerate().map(|(n, line)| Line {
            file: file.clone(),
            number: n + 1,
            text: line.trim().to_string(),
        }));
    }
    lines
}

fn listing(lines: &[&Line]) -> String {
    lines.iter().map(|l| format!("{l}\n")).collect()
}

/// The engine keeps its state in dense tables, bounded vectors and maps
/// behind `scd_core::flat::FixedHasher` (DESIGN.md §17), and the model
/// checker digests and deduplicates states with it (§12). `HashMap::new()`
/// and `HashSet::new()` exist only for the default hasher, so one of them
/// (or a `RandomState`, or a `DefaultHasher` by name) above a file's first
/// `#[cfg(test)]` means SipHash is drifting back onto the per-event or the
/// per-state path.
#[test]
fn no_default_hasher_on_the_engine_path() {
    let lines = engine_lines(&["core", "protocol", "machine", "noc", "mem", "sim", "check"]);
    assert!(lines.len() > 10_000, "the seven source trees were found");
    let patterns = ["HashMap::new()", "HashSet::new()", "RandomState", "DefaultHasher"];
    let found: Vec<&Line> =
        lines.iter().filter(|l| patterns.iter().any(|p| l.text.contains(p))).collect();
    assert!(found.is_empty(), "default hasher on the engine path:\n{}", listing(&found));
}

/// The machine crate's shape (DESIGN.md §16): a `ProtocolKind` becomes
/// behaviour in exactly one file, `machine/backend.rs` — everywhere else
/// the engine and the handlers go through `Backend`'s methods, never a
/// `match` on the configured protocol — and the requester half of a
/// transaction is written once, so the RAC is entered (`rac.start(`) and
/// a read reply meets its MSHR (`try_read_reply(`) at one site each.
/// Comments may say what they like.
#[test]
fn one_protocol_dispatch_file_and_one_requester() {
    let lines = engine_lines(&["machine"]);
    let code = |needle: &str| -> Vec<&Line> {
        lines.iter().filter(|l| l.text.contains(needle) && !l.text.starts_with("//")).collect()
    };
    let dispatch: Vec<&Line> = code("ProtocolKind::")
        .into_iter()
        .filter(|l| !l.file.ends_with("config.rs") && !l.file.ends_with("machine/backend.rs"))
        .collect();
    assert!(dispatch.is_empty(), "protocol dispatch outside backend.rs:\n{}", listing(&dispatch));
    for needle in ["rac.start(", "try_read_reply("] {
        let sites = code(needle);
        assert_eq!(sites.len(), 1, "`{needle}` sites:\n{}", listing(&sites));
    }
}

/// Checking is observation (DESIGN.md §12): the version oracle, the value
/// oracle and the quiescent checker read the machine, never steer it. So
/// no protocol handler above its file's first `#[cfg(test)]` reads a
/// verification switch; a handler that did could send a different
/// message, or a different payload, with checking on than off, and the
/// checks would then pass on a machine that runs only under them.
#[test]
fn verification_switches_never_steer_the_protocol() {
    let handlers = ["dash.rs", "tardis.rs", "dls.rs", "requester.rs"].map(|h| format!("machine/{h}"));
    let lines = engine_lines(&["machine"]);
    let handler_lines: Vec<&Line> =
        lines.iter().filter(|l| handlers.iter().any(|h| l.file.ends_with(h))).collect();
    assert!(handler_lines.len() > 1_000, "the four handler files were found");
    let found: Vec<&Line> = handler_lines
        .into_iter()
        .filter(|l| !l.text.starts_with("//"))
        .filter(|l| ["check_invariants", "value_oracle"].iter().any(|s| l.text.contains(s)))
        .collect();
    assert!(found.is_empty(), "a verification switch steers a handler:\n{}", listing(&found));
}

/// The fault model has one owner (DESIGN.md §8): outside
/// `machine/fault.rs`, no code line of the machine crate reads a
/// `FaultPlan` rate, so which messages a mode may touch, its draws and its
/// clamp are decided in one module. And the explorer never names the run's
/// `Tally`, so metrics stay out of a state's digest by construction.
#[test]
fn fault_policy_lives_in_one_module() {
    const RATES: [&str; 6] =
        ["nack_prob", "dup_prob", "delay_prob", "delay_cycles", "reorder_prob", "reorder_window"];
    let lines = engine_lines(&["machine"]);
    assert!(lines.iter().any(|l| l.file.ends_with("machine/fault.rs")), "fault.rs was found");
    let rates: Vec<&Line> = lines
        .iter()
        .filter(|l| !l.file.ends_with("machine/fault.rs") && !l.text.starts_with("//"))
        .filter(|l| RATES.iter().any(|r| l.text.contains(r)))
        .collect();
    assert!(rates.is_empty(), "a fault rate read outside machine/fault.rs:\n{}", listing(&rates));
    let tally: Vec<&Line> = lines
        .iter()
        .filter(|l| l.file.ends_with("machine/explore.rs") && l.text.contains("tally"))
        .collect();
    assert!(tally.is_empty(), "the explorer names the tally:\n{}", listing(&tally));
}

/// Synchronization has one owner (DESIGN.md §16): each cluster's lock and
/// barrier records live in `scd_protocol::sync` and carry their own
/// timestamps, so the only `*_pts` functions the machine crate defines
/// are the two through which a backend supplies and absorbs a cluster's
/// `pts`. And a backend records an invalidation event through one engine
/// call, so no file under `machine/` names the tally's histogram.
#[test]
fn synchronization_lives_in_one_module() {
    let lines = engine_lines(&["machine"]);
    let fn_name = |l: &Line| -> Option<String> {
        let rest = l.text.split_once("fn ")?.1;
        Some(rest.chars().take_while(|c| c.is_alphanumeric() || *c == '_').collect())
    };
    let pts_fns: Vec<&Line> =
        lines.iter().filter(|l| fn_name(l).is_some_and(|f| f.ends_with("_pts"))).collect();
    let names: std::collections::BTreeSet<String> = pts_fns.iter().filter_map(|l| fn_name(l)).collect();
    assert_eq!(
        names,
        ["absorb_pts".to_string(), "sync_pts".to_string()].into(),
        "`*_pts` functions in the machine crate:\n{}",
        listing(&pts_fns)
    );
    let backends: Vec<&Line> =
        lines.iter().filter(|l| l.file.parent().is_some_and(|d| d.ends_with("src/machine"))).collect();
    assert!(backends.len() > 1_000, "the files under machine/ were found");
    let hist: Vec<&Line> = backends.into_iter().filter(|l| l.text.contains("inval_hist")).collect();
    assert!(hist.is_empty(), "a backend names the invalidation histogram:\n{}", listing(&hist));
}

/// Event payloads are read from text in one place, `TraceEvent::parse`
/// (DESIGN.md §18). Outside `crates/trace/src/event.rs`, no line of the
/// trace crate or of the binaries looks a payload key up by name: as the
/// first argument of a `get`, `*_of` or `req_*` call, or as a `match`
/// arm. Writers (`.with("txn", …)`) and document paths
/// (`req_u64(fanout, "occupancy.fanout", "targets")`) name keys freely.
#[test]
fn one_trace_event_decoder() {
    const KEYS: [&str; 10] = [
        "txn", "latency", "retries", "attempt", "backoff", "targets", "cause", "phase", "victim",
        "hops",
    ];
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let lines = non_test_lines(&[root.join("crates/trace/src"), root.join("src/bin")]);
    assert!(lines.len() > 5_000, "the trace crate and the binaries were found");
    let looks_up = |l: &Line| {
        let ident = |c: char| c.is_alphanumeric() || c == '_';
        KEYS.iter().any(|key| {
            let quoted = format!("\"{key}\"");
            l.text.match_indices(&quoted).any(|(at, _)| {
                let after = l.text[at + quoted.len()..].trim_start();
                let callee = l.text[..at].strip_suffix('(').map(|b| b.rsplit(|c| !ident(c)).next());
                let called = callee
                    .flatten()
                    .is_some_and(|f| f == "get" || f.ends_with("_of") || f.starts_with("req_"));
                called || after.starts_with("=>") || after.starts_with('|')
            })
        })
    };
    let found: Vec<&Line> = lines
        .iter()
        .filter(|l| !l.file.ends_with("crates/trace/src/event.rs") && !l.text.starts_with("//"))
        .filter(|l| looks_up(l))
        .collect();
    assert!(found.is_empty(), "event payload looked up outside TraceEvent::parse:\n{}", listing(&found));
}

/// `scdsim` records a run and `scd-telemetry` reads it back (DESIGN.md
/// §9): the span profile, a pure fold of the recorded events, is not
/// built in the process that ran the machine. No line of `scdsim`'s
/// source names the span tree or one of its three outputs, and no binary
/// but `scd-telemetry` names a reader of recorded lines (`run_line` also
/// matches `run_lines`).
#[test]
fn one_binary_records_one_reads() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let source = std::fs::read_to_string(root.join("src/bin/scdsim.rs")).expect("scdsim's source");
    for name in ["SpanTree", "to_perfetto", "to_folded", "analyze"] {
        let found: Vec<&str> = source.lines().filter(|l| l.contains(name)).collect();
        assert!(found.is_empty(), "src/bin/scdsim.rs names `{name}`:\n{}", found.join("\n"));
    }
    let readers = ["TraceEvent::parse", "Fields::parse", "IntervalSnapshot::parse", "run_line"];
    let mut binaries = Vec::new();
    rust_files(&root.join("src/bin"), &mut binaries);
    let found: Vec<String> = binaries
        .iter()
        .filter(|file| !file.ends_with("scd-telemetry.rs"))
        .flat_map(|file| {
            let source = std::fs::read_to_string(file).expect("a binary's source");
            let lines = source.lines().enumerate();
            let named = lines.filter(|(_, l)| readers.iter().any(|r| l.contains(r)));
            named.map(|(n, l)| format!("{}:{}: {l}", file.display(), n + 1)).collect::<Vec<_>>()
        })
        .collect();
    assert!(found.is_empty(), "a binary other than scd-telemetry reads lines:\n{}", found.join("\n"));
}

/// The non-test lines of the trace crate, the binaries (`repro` too) and
/// the command line they share, at most: the readers were made one path at
/// a price in lines, and paid it back. A change that grows them raises
/// this number in its own diff.
const READERS_CEILING: usize = 7_579;

#[test]
fn the_readers_stay_within_their_line_ceiling() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let paths = ["crates/trace/src", "src/bin", "crates/bench/src/bin/repro.rs", "crates/bench/src/cli.rs"];
    let lines = non_test_lines(&paths.map(|p| root.join(p))).len();
    assert!(lines <= READERS_CEILING, "{lines} non-test lines, ceiling {READERS_CEILING}");
}

/// Every file and directory of the repository (build output and VCS data
/// aside), as `/`-separated paths relative to the root; directories end
/// in `/`.
fn repo_files(root: &Path, dir: &Path, out: &mut Vec<String>) {
    for entry in std::fs::read_dir(dir).expect("a directory") {
        let path = entry.expect("a directory entry").path();
        let rel = path.strip_prefix(root).expect("under the root");
        let rel = rel.to_string_lossy().replace('\\', "/");
        let name = rel.rsplit('/').next().unwrap_or(&rel);
        if name == "target" || name == ".git" {
            continue;
        }
        if path.is_dir() {
            out.push(format!("{rel}/"));
            repo_files(root, &path, out);
        } else {
            out.push(rel);
        }
    }
}

/// The binaries whose flags the documents name.
const BINARIES: [&str; 4] = ["scdsim", "scd-sweep", "scd-check", "scd-telemetry"];

/// `a{b,c}d` as `[abd, acd]` (one brace group); anything else as itself.
fn expand_braces(name: &str) -> Vec<String> {
    match (name.split_once('{'), name.split_once('}')) {
        (Some((head, _)), Some((body, tail))) => {
            let body = &body[head.len() + 1..];
            body.split(',').map(|alt| format!("{head}{alt}{tail}")).collect()
        }
        _ => vec![name.to_string()],
    }
}

/// The sources whose `match` arms are the command-line flags the
/// documents may name bare: every binary of the root package, `repro`
/// and the benchmark's driver.
fn flag_sources(root: &Path) -> String {
    let mut files = vec![root.join("crates/bench/src/bin/repro.rs"), root.join("benchmark/src/main.rs")];
    rust_files(&root.join("src/bin"), &mut files);
    files.iter().map(|f| std::fs::read_to_string(f).expect("a binary's source")).collect()
}

/// The flag a backticked span opens with (`--jobs 4` names `--jobs`).
fn bare_flag(span: &str) -> Option<&str> {
    let word = span.split_whitespace().next()?.split('=').next()?;
    let flag = word.trim_end_matches(|c: char| !c.is_alphanumeric());
    (flag.starts_with("--") && flag.len() > 2).then_some(flag)
}

/// What is stale about one backticked span, or one command of a fenced
/// block (`fenced`): a `path.rs::name` whose file lacks `fn name`, a
/// repository path that does not exist, a binary's `--flag` that its
/// source does not match on, or a bare `--flag` no binary in
/// `flag_sources` matches on. A path may be written from the root or as a
/// suffix (`machine/telemetry.rs`), with an optional `:line`; a name may
/// end in `*` (a prefix) or hold one `{a,b}` group.
fn stale_pointers(
    root: &Path,
    files: &[String],
    flags: &str,
    span: &str,
    fenced: bool,
) -> Vec<String> {
    let mut stale = Vec::new();
    let resolve = |path: &str| -> Vec<PathBuf> {
        let path = path.split(':').next().unwrap_or(path);
        let hits = files.iter().filter(|f| *f == path || f.ends_with(&format!("/{path}")));
        hits.map(|f| root.join(f)).collect()
    };
    if let Some((path, name)) = span.split_once(".rs::").filter(|_| !fenced) {
        let path = format!("{path}.rs");
        let texts: Vec<String> =
            resolve(&path).into_iter().filter_map(|f| std::fs::read_to_string(f).ok()).collect();
        let name = name.rsplit("::").next().unwrap_or(name);
        for name in expand_braces(name) {
            let (name, prefix) = match name.strip_suffix('*') {
                Some(stem) => (stem.to_string(), true),
                None => (name, false),
            };
            let opens: &[&str] = if prefix { &[""] } else { &["(", "<"] };
            let defines = |text: &String| opens.iter().any(|o| text.contains(&format!("fn {name}{o}")));
            if texts.is_empty() {
                stale.push(format!("`{span}`: no file {path}"));
            } else if !texts.iter().any(defines) {
                stale.push(format!("`{span}`: {path} has no `fn {name}`"));
            }
        }
    } else if !fenced {
        let bare = span.split(':').next().unwrap_or(span);
        let exts = [".rs", ".md", ".json", ".jsonl", ".csv", ".txt", ".toml", ".sh", ".yml"];
        let path_like = span.contains('/')
            && !span.starts_with('/')
            && !span.contains("target/")
            && span.chars().all(|c| c.is_alphanumeric() || "_.-/:".contains(c))
            && (bare.ends_with('/') || exts.iter().any(|e| bare.ends_with(e)));
        if path_like && resolve(span).is_empty() {
            stale.push(format!("`{span}`: no such path"));
        }
        if let Some(flag) = bare_flag(span).filter(|f| !flags.contains(&format!("\"{f}\""))) {
            stale.push(format!("`{span}`: no binary matches on {flag}"));
        }
    }
    let words: Vec<&str> = span.split_whitespace().collect();
    for (i, word) in words.iter().enumerate() {
        let Some(bin) = BINARIES.iter().find(|b| word.rsplit('/').next() == Some(**b)) else {
            continue;
        };
        let source = std::fs::read_to_string(root.join(format!("src/bin/{bin}.rs")))
            .expect("the binary's source");
        let args = words[i + 1..].iter().take_while(|w| {
            !["|", "&&", "||", ";"].contains(w) && !w.starts_with('>') && !BINARIES.contains(w)
        });
        for flag in args.filter(|w| w.starts_with("--") && w.len() > 2) {
            let flag = flag.split('=').next().unwrap_or(flag);
            let flag = flag.trim_end_matches(|c: char| !c.is_alphanumeric());
            if !source.contains(&format!("\"{flag}\"")) {
                stale.push(format!("`{bin} {flag}`: not a flag of {bin}"));
            }
        }
    }
    stale
}

/// Tests, files and flags that README.md, DESIGN.md and EXPERIMENTS.md
/// name must exist: a backticked `path.rs::name` names a `fn name` in that
/// file, a backticked repository path exists, a `--flag` given to one of
/// the binaries (inline or in a fenced block) is one its source matches
/// on, and a backticked bare `--flag` is one some binary matches on.
/// Deleting a test, a file or a flag without fixing the documents that
/// point at it fails here.
#[test]
fn doc_pointers_resolve() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    repo_files(root, root, &mut files);
    let (mut stale, mut spans) = (Vec::new(), 0);
    let flags = flag_sources(root);
    for doc in ["README.md", "DESIGN.md", "EXPERIMENTS.md"] {
        let text = std::fs::read_to_string(root.join(doc)).expect("a document");
        let (mut fenced, mut command) = (false, String::new());
        for (n, line) in text.lines().enumerate() {
            if line.trim_start().starts_with("```") {
                fenced = !fenced;
                continue;
            }
            let found: Vec<String> = if fenced {
                // A fenced command may continue over `\`-ended lines.
                command.push_str(line.trim_end_matches('\\'));
                command.push(' ');
                if line.ends_with('\\') {
                    continue;
                }
                vec![std::mem::take(&mut command)]
            } else {
                line.split('`').skip(1).step_by(2).map(str::to_string).collect()
            };
            for span in found {
                spans += 1;
                let problems = stale_pointers(root, &files, &flags, span.trim(), fenced);
                stale.extend(problems.into_iter().map(|p| format!("{doc}:{}: {p}", n + 1)));
            }
        }
    }
    assert!(spans > 500, "only {spans} spans: the documents were not read");
    assert!(stale.is_empty(), "stale pointers:\n{}", stale.join("\n"));
}

/// What `repro --check` checks, without the binary.
#[test]
#[ignore = "132 simulations at scale 1.0; run in release"]
fn committed_results_are_what_this_build_generates() {
    let all: Vec<&Artifact> = ARTIFACTS.iter().collect();
    let jobs = std::thread::available_parallelism().map_or(1, usize::from);
    let out = regenerate(&all, 1.0, jobs);
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    let differences = check(&results, &out.sheets);
    assert!(differences.is_empty(), "{}", differences.join("\n"));
}
