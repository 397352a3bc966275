//! End-to-end gates for the model checker: the full litmus corpus must
//! explore clean, an armed protocol bug must be caught with a replayable
//! counterexample, and the simulator's random nondeterminism must stay
//! inside the exhaustively explored state space.

use scd_check::{
    corpus, explore, minimize, random_walk, replay_trace, scenarios, ExploreConfig,
};
use scd_machine::{FaultEdges, Machine, Mutation};

/// The exploration config a litmus test asks for (its own fault edges and
/// budget, default bounds).
fn cfg_for(l: &scd_check::Litmus) -> ExploreConfig {
    ExploreConfig {
        faults: l.faults,
        fault_budget: l.fault_budget,
        ..ExploreConfig::default()
    }
}

/// Every litmus × scenario pair explores exhaustively with zero
/// violations and without hitting the depth or state bounds: any protocol
/// change that breaks an invariant in any reachable interleaving of any
/// backend, scheme or organization fails here.
#[test]
fn full_corpus_explores_clean_and_untruncated() {
    for l in corpus() {
        let cfg = cfg_for(&l);
        for sc in scenarios() {
            let out = explore(&|| l.build(&sc, None, false), &cfg);
            assert!(
                out.violation.is_none(),
                "{} under {}: {}",
                l.name,
                sc.label,
                out.violation.unwrap().error
            );
            assert!(!out.truncated, "{} under {} truncated", l.name, sc.label);
            assert!(out.visited > 0 && out.leaves > 0);
        }
    }
}

/// The size of the explored state space is part of the contract: summed
/// over corpus × scenarios, once with each litmus's own edges and budget
/// and once with the NACK + delay 40 + dup 40 edges, `visited` and `leaves`
/// are the `check.states` / `check.leaves` the benchmark's `check_corpus`
/// workload reports per pass. A change to the explorer, the digest or the
/// event queue that prunes, merges or duplicates states moves these.
#[test]
fn corpus_state_space_is_pinned() {
    let sweep = FaultEdges {
        nack: true,
        delay: Some(40),
        dup: Some(40),
    };
    let (mut visited, mut leaves) = (0, 0);
    for faults in [None, Some(sweep)] {
        for l in corpus() {
            let cfg = ExploreConfig {
                faults: faults.unwrap_or(l.faults),
                ..cfg_for(&l)
            };
            for sc in scenarios() {
                let out = explore(&|| l.build(&sc, None, false), &cfg);
                let clean = out.violation.is_none() && !out.truncated;
                assert!(clean, "{} under {}", l.name, sc.label);
                assert_eq!(out.digests.len() as u64, out.visited);
                visited += out.visited;
                leaves += out.leaves;
            }
        }
    }
    assert_eq!((visited, leaves), (11_828, 261));
}

/// `corpus_states.txt` commits the row `scd-check` prints for every litmus
/// × scenario, once as `scd-check --litmus all` explores them (each
/// litmus's own edges and budget) and once with the NACK + delay 7 + dup 9
/// edges at budget 1, each section under the command that prints it. A
/// change that prunes, merges or adds states moves a row, and the file is
/// then updated on purpose.
#[test]
fn corpus_states_txt_is_what_exploration_produces() {
    let sweep = FaultEdges {
        nack: true,
        delay: Some(7),
        dup: Some(9),
    };
    let sections = [
        ("# scd-check --litmus all", None),
        (
            "# scd-check --litmus all --fault-nack --fault-delay 7 --fault-dup 9 --fault-budget 1",
            Some((sweep, 1)),
        ),
    ];
    let mut fresh = Vec::new();
    for (header, edges) in sections {
        fresh.push(header.to_string());
        for l in corpus() {
            let (faults, fault_budget) = edges.unwrap_or((l.faults, l.fault_budget));
            let cfg = ExploreConfig {
                faults,
                fault_budget,
                ..ExploreConfig::default()
            };
            for sc in scenarios() {
                let out = explore(&|| l.build(&sc, None, false), &cfg);
                assert!(out.violation.is_none(), "{} under {}", l.name, sc.label);
                fresh.push(out.row(l.name, &sc.label));
            }
        }
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/corpus_states.txt");
    let committed = std::fs::read_to_string(path).expect("the committed state counts");
    let committed: Vec<&str> = committed.lines().collect();
    for (n, (want, got)) in committed.iter().zip(&fresh).enumerate() {
        assert_eq!(want, got, "{path}:{}: committed row, regenerated row", n + 1);
    }
    assert_eq!(committed.len(), fresh.len(), "{path}: row count");
}

/// `max_states` bounds the states visited, not the states visited minus
/// one: the search stops before counting (and before skipping the
/// invariant check of) a state beyond the bound.
#[test]
fn max_states_is_an_inclusive_bound() {
    let l = corpus()
        .into_iter()
        .find(|l| l.name == "message-passing")
        .unwrap();
    let sc = scenarios()
        .into_iter()
        .find(|s| s.label == "dense/complete")
        .unwrap();
    let cfg = ExploreConfig {
        max_states: 10,
        ..cfg_for(&l)
    };
    let out = explore(&|| l.build(&sc, None, false), &cfg);
    assert!(out.truncated && out.violation.is_none());
    assert_eq!(out.visited, 10);
    assert_eq!(out.digests.len(), 10);
}

/// One seeded bug per backend must be caught on the scenario it breaks:
/// the counterexample minimizes to a path no longer than the original, and
/// its replay is standard `scd-trace` JSONL that the validator accepts.
fn mutant_is_caught(litmus: &str, scenario: &str, mutation: Mutation) {
    let l = corpus().into_iter().find(|l| l.name == litmus).unwrap();
    let sc = scenarios()
        .into_iter()
        .find(|s| s.label == scenario)
        .unwrap();
    let cfg = cfg_for(&l);
    let build = || l.build(&sc, Some(mutation), false);

    let out = explore(&build, &cfg);
    let found = out.violation.unwrap_or_else(|| {
        panic!("mutant not caught: {mutation:?} survived {litmus} under {scenario}")
    });
    assert!(
        found.error.contains("block"),
        "violation must name the offending block: {}",
        found.error
    );

    let min = minimize(&build, &cfg, found.choices.len())
        .expect("a violation found at depth d must also be found by depth-d search");
    assert!(min.choices.len() <= found.choices.len());

    // The replay describes every choice; a step-level failure (panic or
    // simulation error) appends one extra "=>" line, while a violation the
    // explorer caught *between* steps replays through all choices cleanly.
    let traced = || l.build(&sc, Some(mutation), true);
    let (jsonl, steps) = replay_trace(&traced, &cfg, &min.choices);
    assert!(steps.len() >= min.choices.len());
    let summary = scd_trace::validate_trace(&jsonl)
        .expect("counterexample trace must be valid scd-trace JSONL");
    assert!(summary.events > 0);
}

#[test]
fn skip_inval_mutation_is_caught_with_replayable_counterexample() {
    mutant_is_caught("message-passing", "dense/complete", Mutation::SkipInval);
}

#[test]
fn tardis_skip_wts_bump_mutation_is_caught_with_replayable_counterexample() {
    mutant_is_caught("message-passing", "tardis", Mutation::TardisSkipWtsBump);
}

#[test]
fn dls_skip_writeback_mutation_is_caught_with_replayable_counterexample() {
    mutant_is_caught("write-after-shared-llc-hit", "dls", Mutation::DlsSkipWriteback);
}

/// The unmutated protocol survives the same exploration the mutation
/// fails — the mutation test above is meaningful only if this holds.
#[test]
fn unmutated_message_passing_explores_clean() {
    let l = corpus()
        .into_iter()
        .find(|l| l.name == "message-passing")
        .unwrap();
    let sc = scenarios()
        .into_iter()
        .find(|s| s.label == "dense/complete")
        .unwrap();
    let out = explore(&|| l.build(&sc, None, false), &cfg_for(&l));
    assert!(out.violation.is_none());
}

/// Fixed-seed random walks — the same nondeterminism a fault-plan
/// simulation run draws on — must only visit states the exhaustive
/// search also reached: the simulator's behaviors are a subset of the
/// model checker's.
#[test]
fn random_walks_stay_inside_the_exhaustive_state_space() {
    for l in corpus() {
        let cfg = cfg_for(&l);
        let sc = scenarios()
            .into_iter()
            .find(|s| s.label == "dense/complete")
            .unwrap();
        let build = || l.build(&sc, None, false);
        let exhaustive = explore(&build, &cfg);
        assert!(exhaustive.violation.is_none());
        for seed in [1u64, 7, 42] {
            let walk = random_walk(&build, &cfg, seed, 4096);
            assert!(
                walk.violation.is_none(),
                "{} walk seed {seed}: {}",
                l.name,
                walk.violation.unwrap().error
            );
            for (i, d) in walk.digests.iter().enumerate() {
                assert!(
                    exhaustive.digests.contains(d),
                    "{} walk seed {seed} step {i}: state not reached by DFS",
                    l.name
                );
            }
        }
    }
}

/// Adversarial NACK placement must not livelock: every path through the
/// nack-retry litmus reaches a drained leaf within the depth bound, for
/// every scheme and organization.
#[test]
fn nack_retry_probe_terminates_everywhere() {
    let l = corpus()
        .into_iter()
        .find(|l| l.name == "nack-retry-livelock")
        .unwrap();
    let cfg = cfg_for(&l);
    assert!(cfg.faults.nack && cfg.fault_budget >= 2);
    for sc in scenarios() {
        let out = explore(&|| l.build(&sc, None, false), &cfg);
        assert!(out.violation.is_none(), "{}: {}", sc.label, out.violation.unwrap().error);
        assert!(!out.truncated, "{}: retry path exceeded depth bound", sc.label);
        assert!(out.leaves > 0);
    }
}

/// Fault edges genuinely branch the search: with NACKs allowed the
/// store-buffering exploration visits strictly more states than without.
#[test]
fn fault_edges_expand_the_state_space() {
    let l = corpus()
        .into_iter()
        .find(|l| l.name == "store-buffering")
        .unwrap();
    let sc = scenarios()
        .into_iter()
        .find(|s| s.label == "dense/complete")
        .unwrap();
    let build = || l.build(&sc, None, false);
    let quiet = explore(&build, &ExploreConfig::default());
    let faulty = explore(
        &build,
        &ExploreConfig {
            faults: FaultEdges {
                nack: true,
                delay: Some(7),
                dup: None,
            },
            fault_budget: 2,
            ..ExploreConfig::default()
        },
    );
    assert!(quiet.violation.is_none() && faulty.violation.is_none());
    assert!(
        faulty.visited > quiet.visited,
        "fault edges added no states ({} vs {})",
        faulty.visited,
        quiet.visited
    );
}

/// The widest fault edges a `FaultEdges` can hold stay inside the engine's
/// clock: a delay and a duplicate of `u32::MAX` cycles explore the first
/// litmus test clean, where a `u64` edge of `u64::MAX` overflowed the
/// delivery time and came back as a protocol counterexample. The cycle
/// budget is lifted: `tiny`'s 50M would end such a branch as a run over
/// budget.
#[test]
fn the_widest_fault_edges_are_not_counterexamples() {
    let (l, sc) = (&corpus()[0], &scenarios()[0]);
    let mut machine = l.config(sc, false);
    machine.max_cycles = 0;
    let faults = FaultEdges { nack: false, delay: Some(u32::MAX), dup: Some(u32::MAX) };
    let cfg = ExploreConfig { faults, fault_budget: 2, ..ExploreConfig::default() };
    let out = explore(&|| Machine::new(machine.clone(), l.scripts()), &cfg);
    assert!(out.violation.is_none(), "{:?}", out.violation);
    assert!(out.leaves > 0 && !out.truncated);
}

/// Besides being explored, every litmus test *runs* to a clean finish
/// under every scenario with the fault injector live on every channel:
/// the run path's own NACK, duplicate, delay and reorder placement.
#[test]
fn litmus_runs_quiesce_under_a_live_fault_plan() {
    let plan = scd_noc::FaultPlan {
        nack_prob: 0.1,
        dup_prob: 0.05,
        delay_prob: 0.1,
        delay_cycles: 7,
        reorder_prob: 0.05,
        reorder_window: 5,
    };
    let mut faults = 0;
    for l in corpus() {
        for sc in scenarios() {
            let mut cfg = l.config(&sc, false);
            cfg.fault_plan = Some(plan);
            let stats = scd_machine::Machine::new(cfg, l.scripts())
                .try_run()
                .unwrap_or_else(|e| panic!("{} under {}: {e}", l.name, sc.label));
            faults += stats.faults.nacks + stats.faults.duplicates + stats.faults.delay_spikes;
        }
    }
    assert!(faults > 0, "the plan never fired");
}
