//! Exhaustive small-config model checker for the coherence core.
//!
//! Runs the `scd-check` litmus corpus — tiny adversarial workloads over
//! 2–3 clusters — through exhaustive interleaving exploration across
//! every directory scheme × organization combination, asserting the
//! coherence invariants at every reached state. Violations are reported
//! as minimal choice sequences and optionally replayed into standard
//! `scd-trace` JSONL counterexamples (consumable by `scd-telemetry
//! validate` and the Perfetto exporter).
//!
//! ```text
//! scd-check --litmus all                         # full corpus, every scheme/org
//! scd-check --litmus message-passing --scheme dense --org complete
//! scd-check --litmus all --mutate skip-inval \
//!           --counterexample-out cex.jsonl       # prove the checker catches bugs
//! scd-check --litmus all --walk 64 --seed 7      # random-walk smoke mode
//! ```
//!
//! Exit codes: 0 = every search complete and clean, 1 = a violation found
//! or a search truncated by `--max-states` / `--max-depth` (it proved
//! nothing about the states beyond the bound), 2 = usage error.

use scd::check::{
    explore, minimize, random_walk, replay_trace, scenarios, Counterexample, ExploreConfig,
};
use scd::machine::machine::explore::{FaultEdges, Mutation};
use scd::noc::FAULT_CYCLES;
use std::process::exit;

const HELP: &str = "\
scd-check: exhaustive small-config model checker for the coherence core

usage: scd-check [options]

  --list                   list litmus tests and scenarios, then exit
  --litmus all|NAME[,..]   litmus tests to run (default: all)
  --protocol all|P[,..]    only scenarios for these coherence protocols
                           (dash, tardis, dls; default: all)
  --scheme all|PREFIX      only scenarios whose label starts with PREFIX
                           (dense, dir1b, dir1nb, dir1x, dir1cv2)
  --org all|NAME           only scenarios with this organization
                           (complete, sparse, overflow)
  --max-depth N            per-path step bound (default 4096)
  --max-states N           distinct-state bound per run (default 200000)
  --fault-nack             also explore NACK fault edges
  --fault-delay CYCLES     also explore delay fault edges
  --fault-dup CYCLES       also explore duplicate-request fault edges
  --fault-budget N         max injected faults per path (default: per-litmus)
  --mutate NAME            arm a deliberate protocol bug (expect exit 1):
                           skip-inval (dash), tardis-skip-wts-bump,
                           dls-skip-writeback
  --minimize               shrink any counterexample to minimal depth
  --counterexample-out F   write the violating run as scd-trace JSONL
  --walk STEPS             random-walk mode instead of exhaustive search
  --seed S                 random-walk seed (default 1)
  -h, --help               show this help

exit status: 0 every search complete and clean; 1 a violation, or a search
truncated by --max-states or --max-depth (raise the bound it names); 2 a
usage error
";

struct Options {
    litmus: String,
    protocol: String,
    scheme: String,
    org: String,
    max_depth: usize,
    max_states: u64,
    fault_nack: bool,
    fault_delay: Option<u64>,
    fault_dup: Option<u64>,
    fault_budget: Option<u32>,
    mutate: Option<Mutation>,
    minimize: bool,
    cex_out: Option<String>,
    walk: Option<usize>,
    seed: u64,
    list: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("scd-check: {msg}\n\n{HELP}");
    exit(2);
}

fn parse_args() -> Options {
    let mut o = Options {
        litmus: "all".into(),
        protocol: "all".into(),
        scheme: "all".into(),
        org: "all".into(),
        max_depth: 4096,
        max_states: 200_000,
        fault_nack: false,
        fault_delay: None,
        fault_dup: None,
        fault_budget: None,
        mutate: None,
        minimize: false,
        cex_out: None,
        walk: None,
        seed: 1,
        list: false,
    };
    let mut args = std::env::args().skip(1);
    let value = |args: &mut dyn Iterator<Item = String>, flag: &str| -> String {
        args.next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
    };
    // A fault edge's cycle count, within the bound a `FaultPlan` holds.
    let cycles = |args: &mut dyn Iterator<Item = String>, flag: &str| -> u64 {
        let c = value(args, flag).parse().ok().filter(|c| FAULT_CYCLES.contains(c));
        c.unwrap_or_else(|| usage(&format!("{flag} must be a cycle count in {FAULT_CYCLES:?}")))
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "-h" | "--help" => {
                print!("{HELP}");
                exit(0);
            }
            "--list" => o.list = true,
            "--litmus" => o.litmus = value(&mut args, "--litmus"),
            "--protocol" => o.protocol = value(&mut args, "--protocol"),
            "--scheme" => o.scheme = value(&mut args, "--scheme"),
            "--org" => o.org = value(&mut args, "--org"),
            "--max-depth" => {
                o.max_depth = value(&mut args, "--max-depth")
                    .parse()
                    .unwrap_or_else(|_| usage("--max-depth must be an integer"))
            }
            "--max-states" => {
                o.max_states = value(&mut args, "--max-states")
                    .parse()
                    .unwrap_or_else(|_| usage("--max-states must be an integer"))
            }
            "--fault-nack" => o.fault_nack = true,
            "--fault-delay" => o.fault_delay = Some(cycles(&mut args, "--fault-delay")),
            "--fault-dup" => o.fault_dup = Some(cycles(&mut args, "--fault-dup")),
            "--fault-budget" => {
                o.fault_budget = Some(
                    value(&mut args, "--fault-budget")
                        .parse()
                        .unwrap_or_else(|_| usage("--fault-budget must be an integer")),
                )
            }
            "--mutate" => match value(&mut args, "--mutate").as_str() {
                "skip-inval" => o.mutate = Some(Mutation::SkipInval),
                "tardis-skip-wts-bump" => o.mutate = Some(Mutation::TardisSkipWtsBump),
                "dls-skip-writeback" => o.mutate = Some(Mutation::DlsSkipWriteback),
                other => usage(&format!(
                    "unknown mutation `{other}` (known: skip-inval, \
                     tardis-skip-wts-bump, dls-skip-writeback)"
                )),
            },
            "--minimize" => o.minimize = true,
            "--counterexample-out" => o.cex_out = Some(value(&mut args, "--counterexample-out")),
            "--walk" => {
                o.walk = Some(
                    value(&mut args, "--walk")
                        .parse()
                        .unwrap_or_else(|_| usage("--walk must be an integer")),
                )
            }
            "--seed" => {
                o.seed = value(&mut args, "--seed")
                    .parse()
                    .unwrap_or_else(|_| usage("--seed must be an integer"))
            }
            other => usage(&format!("unknown argument `{other}`")),
        }
    }
    o
}

fn emit_counterexample(
    litmus: &scd::check::Litmus,
    scenario: &scd::check::Scenario,
    mutate: Option<Mutation>,
    cfg: &ExploreConfig,
    cex: &Counterexample,
    path: &str,
) {
    let build = || litmus.build(scenario, mutate, true);
    let (jsonl, steps) = replay_trace(&build, cfg, &cex.choices);
    eprintln!("  reproduction ({} choices):", cex.choices.len());
    for (i, s) in steps.iter().enumerate() {
        eprintln!("    {i:>3}  {s}");
    }
    match std::fs::write(path, &jsonl) {
        Ok(()) => eprintln!("  counterexample trace written to {path}"),
        Err(e) => eprintln!("  cannot write {path}: {e}"),
    }
}

fn main() {
    let o = parse_args();
    let litmus = match scd::check::litmus::select(&o.litmus) {
        Ok(l) => l,
        Err(e) => usage(&e),
    };
    let protocols: Vec<scd::machine::ProtocolKind> = if o.protocol == "all" {
        scd::machine::ProtocolKind::ALL.to_vec()
    } else {
        o.protocol
            .split(',')
            .map(|p| {
                scd::machine::ProtocolKind::parse(p.trim())
                    .unwrap_or_else(|e| usage(&e))
            })
            .collect()
    };
    let scens: Vec<_> = scenarios()
        .into_iter()
        .filter(|s| protocols.contains(&s.protocol))
        .filter(|s| o.scheme == "all" || s.label.starts_with(&o.scheme))
        .filter(|s| o.org == "all" || s.label.ends_with(&o.org))
        .collect();
    if scens.is_empty() {
        usage("no scenario matches the --protocol/--scheme/--org filters");
    }
    if o.list {
        println!("litmus tests:");
        for l in &litmus {
            println!("  {:<32} {}", l.name, l.summary);
        }
        println!("scenarios:");
        for s in &scens {
            println!("  {}", s.label);
        }
        return;
    }

    let mut failures = 0u32;
    // Searches cut short by each bound: (--max-states, --max-depth).
    let mut truncated = (0u32, 0u32);
    for l in &litmus {
        for s in &scens {
            let cfg = ExploreConfig {
                faults: FaultEdges {
                    nack: l.faults.nack || o.fault_nack,
                    delay: o.fault_delay.or(l.faults.delay),
                    dup: o.fault_dup.or(l.faults.dup),
                },
                fault_budget: o.fault_budget.unwrap_or(l.fault_budget),
                max_depth: o.max_depth,
                max_states: o.max_states,
                check_each_step: true,
            };
            let build = || l.build(s, o.mutate, false);

            if let Some(steps) = o.walk {
                let w = random_walk(&build, &cfg, o.seed, steps);
                match &w.violation {
                    None => println!(
                        "walk  {:<28} {:<18} {:>6} steps  ok",
                        l.name, s.label, w.steps
                    ),
                    Some(v) => {
                        failures += 1;
                        println!(
                            "walk  {:<28} {:<18} {:>6} steps  VIOLATION: {}",
                            l.name, s.label, w.steps, v.error
                        );
                    }
                }
                continue;
            }

            let outcome = explore(&build, &cfg);
            match &outcome.violation {
                None => {
                    println!("{}", outcome.row(l.name, &s.label));
                    if outcome.truncated && outcome.visited >= cfg.max_states {
                        truncated.0 += 1;
                    } else if outcome.truncated {
                        truncated.1 += 1;
                    }
                }
                Some(found) => {
                    failures += 1;
                    let cex = if o.minimize {
                        minimize(&build, &cfg, found.choices.len())
                            .unwrap_or_else(|| found.clone())
                    } else {
                        found.clone()
                    };
                    println!(
                        "check {:<28} {:<18} {:>7} states  VIOLATION at depth {}",
                        l.name,
                        s.label,
                        outcome.visited,
                        cex.choices.len()
                    );
                    eprintln!("  {}", cex.error);
                    if let Some(path) = &o.cex_out {
                        emit_counterexample(l, s, o.mutate, &cfg, &cex, path);
                    }
                }
            }
        }
    }
    if failures > 0 {
        eprintln!("scd-check: {failures} violation(s) found");
    }
    for (runs, flag, bound) in [
        (truncated.0, "--max-states", o.max_states),
        (truncated.1, "--max-depth", o.max_depth as u64),
    ] {
        if runs > 0 {
            eprintln!(
                "scd-check: {runs} search(es) truncated at {flag} {bound}, proving nothing \
                 beyond it; raise {flag}"
            );
        }
    }
    if failures > 0 || truncated != (0, 0) {
        exit(1);
    }
}
