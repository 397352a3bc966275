//! `repro [artifact…] [--scale f] [--jobs n] [--check]` — regenerates the
//! paper's tables and figures (see [`bench::repro`]).
//!
//! Without `--check`, prints each artifact's rows as a table and writes
//! them as CSV under `results/`. With it, nothing is written: the rows
//! are compared with the committed `results/` byte for byte, and any
//! difference is reported as `file:line` with exit code 1. No artifact
//! named means all of them; `--scale` (default 1.0, what `results/`
//! holds) shrinks the problem sizes; `--jobs` defaults to every hardware
//! thread and never changes a byte of output.

use std::path::Path;
use std::process::exit;

use bench::repro::{check, regenerate, write, Artifact, ARTIFACTS};

fn usage() -> String {
    let mut text = String::from(
        "usage: repro [artifact...] [--scale <f>] [--jobs <n>] [--check]\n\nartifacts (default: all):\n",
    );
    for a in &ARTIFACTS {
        text.push_str(&format!("  {:<20} {}\n", a.name, a.about));
    }
    text
}

fn usage_err(msg: &str) -> ! {
    eprintln!("repro: {msg}\n{}", usage());
    exit(2);
}

fn value<T: std::str::FromStr>(flag: &str, raw: Option<String>) -> T {
    raw.and_then(|s| s.parse().ok())
        .unwrap_or_else(|| usage_err(&format!("{flag} needs a value")))
}

fn main() {
    let mut chosen: Vec<&Artifact> = Vec::new();
    let mut scale = 1.0f64;
    let mut jobs = std::thread::available_parallelism().map_or(1, usize::from);
    let mut checking = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "-h" | "--help" => {
                print!("{}", usage());
                return;
            }
            "--scale" => scale = value("--scale", args.next()),
            "--jobs" => jobs = value("--jobs", args.next()),
            "--check" => checking = true,
            name => match ARTIFACTS.iter().find(|a| a.name == name) {
                Some(artifact) => chosen.push(artifact),
                None => usage_err(&format!("unknown artifact or flag `{name}`")),
            },
        }
    }
    if !(scale > 0.0 && scale <= 1.0) {
        usage_err("--scale must be in (0, 1]");
    }
    if chosen.is_empty() {
        chosen = ARTIFACTS.iter().collect();
    }

    let t0 = std::time::Instant::now();
    let out = regenerate(&chosen, scale, jobs);
    eprintln!(
        "[repro: {} runs asked for, {} simulated, {:.1}s on {} jobs]",
        out.wanted,
        out.simulated,
        t0.elapsed().as_secs_f64(),
        out.jobs
    );
    let dir = Path::new("results");
    if checking {
        let differences = check(dir, &out.sheets);
        for d in &differences {
            eprintln!("{d}");
        }
        if !differences.is_empty() {
            eprintln!(
                "repro --check: {} of {} files differ from what this build generates",
                differences.len(),
                out.sheets.len()
            );
            exit(1);
        }
        println!(
            "repro --check: {} files match {}/",
            out.sheets.len(),
            dir.display()
        );
    } else {
        for sheet in &out.sheets {
            println!("{}", sheet.table());
        }
        if let Err(e) = write(dir, &out.sheets) {
            eprintln!("repro: cannot write under {}/: {e}", dir.display());
            exit(1);
        }
        eprintln!(
            "[{} files written under {}/]",
            out.sheets.len(),
            dir.display()
        );
    }
}
