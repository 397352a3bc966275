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

/// The engine keeps its state in dense tables, bounded vectors and maps
/// behind `scd_core::flat::FixedHasher` (DESIGN.md §17). `HashMap::new()`
/// and `HashSet::new()` exist only for the default hasher, so one of them
/// (or a `RandomState`) above a file's first `#[cfg(test)]` means SipHash is
/// drifting back onto the per-event path.
#[test]
fn no_default_hasher_on_the_engine_path() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for krate in ["core", "protocol", "machine", "noc", "mem", "sim"] {
        rust_files(&root.join("crates").join(krate).join("src"), &mut files);
    }
    assert!(files.len() > 30, "the six source trees were found");
    let mut found = Vec::new();
    for file in &files {
        let text = std::fs::read_to_string(file).expect("readable source");
        let engine = text.lines().take_while(|l| !l.contains("#[cfg(test)]"));
        for (n, line) in engine.enumerate() {
            let patterns = ["HashMap::new()", "HashSet::new()", "RandomState"];
            if patterns.iter().any(|p| line.contains(p)) {
                found.push(format!("{}:{}: {}", file.display(), n + 1, line.trim()));
            }
        }
    }
    assert!(found.is_empty(), "default hasher on the engine path:\n{}", found.join("\n"));
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
