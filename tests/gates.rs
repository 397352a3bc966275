//! Gates on the repository as a whole rather than on one crate or one
//! binary: what the engine's source may not contain, and `results/` being
//! what this build generates. The slow one is ignored:
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
    let mut files = Vec::new();
    for krate in krates {
        rust_files(&root.join("crates").join(krate).join("src"), &mut files);
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
