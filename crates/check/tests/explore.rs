//! End-to-end gates for the model checker: the full litmus corpus must
//! explore clean, an armed protocol bug must be caught with a replayable
//! counterexample, and the simulator's random nondeterminism must stay
//! inside the exhaustively explored state space.

use scd_check::{
    corpus, explore, minimize, random_walk, replay_trace, scenarios, ExploreConfig,
};
use scd_machine::{FaultEdges, Mutation};

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
/// violations and without hitting the depth or state bounds. This is the
/// CI gate: any protocol change that breaks an invariant in any reachable
/// interleaving of any scheme/organization fails here.
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

/// An armed skip-invalidation bug must be caught, the counterexample must
/// minimize to a path no longer than the original, and the replay must
/// produce standard `scd-trace` JSONL that the validator accepts.
#[test]
fn skip_inval_mutation_is_caught_with_replayable_counterexample() {
    let l = corpus()
        .into_iter()
        .find(|l| l.name == "message-passing")
        .unwrap();
    let sc = scenarios()
        .into_iter()
        .find(|s| s.label == "dense/complete")
        .unwrap();
    let cfg = cfg_for(&l);
    let build = || l.build(&sc, Some(Mutation::SkipInval), false);

    let out = explore(&build, &cfg);
    let found = out
        .violation
        .expect("skip-inval must violate coherence under message-passing");
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
    let traced = || l.build(&sc, Some(Mutation::SkipInval), true);
    let (jsonl, steps) = replay_trace(&traced, &cfg, &min.choices);
    assert!(steps.len() >= min.choices.len());
    let summary = scd_trace::validate_trace(&jsonl)
        .expect("counterexample trace must be valid scd-trace JSONL");
    assert!(summary.events > 0);
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
