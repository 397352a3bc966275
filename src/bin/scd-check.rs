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
//! README.md's "Exit codes" table says what each exit means.

use bench::cli::{refuse, Args};
use scd::check::{
    corpus, explore, minimize, random_walk, replay_trace, scenarios, Counterexample, ExploreConfig,
};
use scd::machine::machine::explore::{FaultEdges, Mutation};
use scd::machine::{MachineConfig, ProtocolKind};
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

/// A fault edge's cycle count `v` given to `flag`, within the bound a
/// `FaultPlan` holds and the litmus machine's cycle budget: a longer gap
/// would end its branch as a run past the budget, not as a verdict.
fn cycles(v: &str, flag: &str) -> Result<u32, String> {
    let budget = MachineConfig::tiny(1).max_cycles;
    let c = v.parse().ok().filter(|&c: &u32| FAULT_CYCLES.contains(&u64::from(c)) && u64::from(c) <= budget);
    c.ok_or_else(|| format!("{flag} must be a cycle count in {FAULT_CYCLES:?}, at most the litmus max_cycles {budget}"))
}

fn mutation(name: &str) -> Result<Mutation, String> {
    match name {
        "skip-inval" => Ok(Mutation::SkipInval),
        "tardis-skip-wts-bump" => Ok(Mutation::TardisSkipWtsBump),
        "dls-skip-writeback" => Ok(Mutation::DlsSkipWriteback),
        other => Err(format!(
            "unknown mutation `{other}` (known: skip-inval, tardis-skip-wts-bump, \
             dls-skip-writeback)"
        )),
    }
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
    let (mut litmus, mut protocols) = (None, ProtocolKind::ALL.to_vec());
    let (mut scheme, mut org) = ("all".to_string(), "all".to_string());
    let (mut max_depth, mut max_states) = (4096usize, 200_000u64);
    let (mut fault_nack, mut fault_delay, mut fault_dup, mut fault_budget) = (false, None, None, None);
    let (mut mutate, mut minimize_cex, mut cex_out) = (None, false, None);
    let (mut walk, mut seed, mut list) = (None, 1u64, false);
    let mut args = Args::new("scd-check", HELP);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--list" => list = true,
            "--litmus" => litmus = Some(args.parse_with(scd::check::litmus::select)),
            "--protocol" => {
                let parse = |p: &str| match p {
                    "all" => Ok(ProtocolKind::ALL.to_vec()),
                    p => ProtocolKind::parse(p).map(|p| vec![p]),
                };
                protocols = args.list(parse).concat();
            }
            "--scheme" => scheme = args.value(),
            "--org" => org = args.value(),
            "--max-depth" => max_depth = args.parse(),
            "--max-states" => max_states = args.parse(),
            "--fault-nack" => fault_nack = true,
            "--fault-delay" => fault_delay = Some(args.parse_with(|v| cycles(v, &arg))),
            "--fault-dup" => fault_dup = Some(args.parse_with(|v| cycles(v, &arg))),
            "--fault-budget" => fault_budget = Some(args.parse()),
            "--mutate" => mutate = Some(args.parse_with(mutation)),
            "--minimize" => minimize_cex = true,
            "--counterexample-out" => cex_out = Some(args.value()),
            "--walk" => walk = Some(args.parse()),
            "--seed" => seed = args.parse(),
            other => refuse(format_args!("unknown flag {other}")),
        }
    }
    let litmus = litmus.unwrap_or_else(corpus);
    let scens: Vec<_> = scenarios()
        .into_iter()
        .filter(|s| protocols.contains(&s.protocol))
        .filter(|s| scheme == "all" || s.label.starts_with(&scheme))
        .filter(|s| org == "all" || s.label.ends_with(&org))
        .collect();
    if scens.is_empty() {
        refuse("no scenario matches the --protocol/--scheme/--org filters");
    }
    if list {
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
                    nack: l.faults.nack || fault_nack,
                    delay: fault_delay.or(l.faults.delay),
                    dup: fault_dup.or(l.faults.dup),
                },
                fault_budget: fault_budget.unwrap_or(l.fault_budget),
                max_depth,
                max_states,
                check_each_step: true,
            };
            let build = || l.build(s, mutate, false);

            if let Some(steps) = walk {
                let w = random_walk(&build, &cfg, seed, steps);
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
                    let cex = if minimize_cex {
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
                    if let Some(path) = &cex_out {
                        emit_counterexample(l, s, mutate, &cfg, &cex, path);
                    }
                }
            }
        }
    }
    if failures > 0 {
        eprintln!("scd-check: {failures} violation(s) found");
    }
    for (runs, flag, bound) in [
        (truncated.0, "--max-states", max_states),
        (truncated.1, "--max-depth", max_depth as u64),
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
