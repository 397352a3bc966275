//! `repro [artifact…] [--scale f] [--jobs n] [--check]` — regenerates the
//! paper's tables and figures (see [`bench::repro`]).
//!
//! Without `--check`, prints each artifact's rows as a table and writes
//! them as CSV under `results/`. With it, nothing is written: the rows
//! are compared with the committed `results/` byte for byte, and any
//! difference is reported as `file:line` with exit code 1. No artifact
//! named means all of them; `--scale` (default 1.0, what `results/`
//! holds) shrinks the problem sizes; `--jobs` defaults to every hardware
//! thread and never changes a byte of output. README.md's "Exit codes"
//! table says what each exit means.

use std::path::Path;
use std::process::exit;

use bench::cli::{fail, refuse, Args};
use bench::parse_scale;
use bench::repro::{check, regenerate, write, Artifact, ARTIFACTS};

fn help() -> String {
    let mut text = String::from(
        "usage: repro [artifact...] [--scale <f>] [--jobs <n>] [--check]\n\nartifacts (default: all):\n",
    );
    for a in &ARTIFACTS {
        text.push_str(&format!("  {:<20} {}\n", a.name, a.about));
    }
    text
}

fn main() {
    let mut chosen: Vec<&Artifact> = Vec::new();
    let mut scale = 1.0f64;
    let mut jobs = std::thread::available_parallelism().map_or(1, usize::from);
    let mut checking = false;
    let mut args = Args::new("repro", help());
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => scale = args.parse_with(parse_scale),
            "--jobs" => jobs = args.parse(),
            "--check" => checking = true,
            name => match ARTIFACTS.iter().find(|a| a.name == name) {
                Some(artifact) => chosen.push(artifact),
                None => refuse(format_args!("unknown artifact or flag `{name}`")),
            },
        }
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
            fail(1, format_args!("cannot write under {}/: {e}", dir.display()));
        }
        eprintln!(
            "[{} files written under {}/]",
            out.sheets.len(),
            dir.display()
        );
    }
}
