//! The state digest merges no states: the explorer deduplicates on
//! `Machine::state_digest`, which runs under the engine's `FixedHasher`, a
//! hasher with no protection against collisions. A collision would
//! silently drop part of the state space, so this holds the production
//! digest against the same digest under SipHash over every state the
//! corpus and the four-cluster litmus reach.

mod common;

use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::HashMap;

use common::{cfg_for, message_passing_two_readers};
use scd_check::{corpus, explore, scenarios, ExploreConfig, Litmus};
use scd_machine::{FaultEdges, Machine};

/// Runs `explore`'s search (same order, same dedup on the production
/// digest with shallowest-depth re-expansion, same fault budget), taking
/// both digests of every state reached, visited or not. Each digest must
/// determine the other: a production digest shared by two states SipHash
/// tells apart is a collision the explorer would have merged. Returns the
/// states visited.
fn explore_under_both_hashers(build: &dyn Fn() -> Machine, cfg: &ExploreConfig) -> u64 {
    let mut root = build();
    if cfg.faults.any() {
        root.tolerate_faults();
    }
    root.begin_exploration();
    let mut sip_of: HashMap<u64, u64> = HashMap::new();
    let mut fixed_of: HashMap<u64, u64> = HashMap::new();
    let mut seen: HashMap<u64, usize> = HashMap::new();
    let mut stack = vec![(root, 0, 0u32)];
    let mut choices = Vec::new();
    while let Some((mut m, depth, faults_used)) = stack.pop() {
        let (fixed, sip) = (m.state_digest(), m.state_digest_with::<DefaultHasher>());
        let want_sip = *sip_of.entry(fixed).or_insert(sip);
        assert_eq!(want_sip, sip, "production digest {fixed:#x} covers two states");
        let want_fixed = *fixed_of.entry(sip).or_insert(fixed);
        assert_eq!(want_fixed, fixed, "SipHash digest {sip:#x} has two production digests");
        match seen.entry(fixed) {
            Entry::Occupied(e) if *e.get() <= depth => continue,
            Entry::Occupied(mut e) => {
                e.insert(depth);
            }
            Entry::Vacant(e) => {
                e.insert(depth);
            }
        }
        m.exploration_choices(&cfg.faults, &mut choices);
        let mut parent = Some(m);
        let mut todo = choices
            .iter()
            .filter(|ch| !ch.is_fault() || faults_used < cfg.fault_budget)
            .rev()
            .peekable();
        while let Some(&ch) = todo.next() {
            let mut child = match todo.peek() {
                Some(_) => parent.clone(),
                None => parent.take(),
            }
            .expect("the parent is moved out for the last child only");
            child.step_explore(ch).expect("the corpus explores clean");
            stack.push((child, depth + 1, faults_used + u32::from(ch.is_fault())));
        }
    }
    seen.len() as u64
}

/// Every litmus × scenario, with its own edges and with the NACK + delay
/// 40 + dup 40 sweep, as the benchmark's `check_corpus` explores them,
/// and the four-cluster litmus at fault budget 1.
#[test]
fn production_and_siphash_digests_determine_each_other() {
    let sweep = FaultEdges {
        nack: true,
        delay: Some(40),
        dup: Some(40),
    };
    let mut runs: Vec<(Litmus, ExploreConfig)> = Vec::new();
    for faults in [None, Some(sweep)] {
        for l in corpus() {
            let cfg = ExploreConfig {
                faults: faults.unwrap_or(l.faults),
                ..cfg_for(&l)
            };
            runs.push((l, cfg));
        }
    }
    let four = message_passing_two_readers(1);
    let cfg = cfg_for(&four);
    runs.push((four, cfg));
    let mut visited = 0;
    for (l, cfg) in &runs {
        for sc in scenarios() {
            let build = || l.build(&sc, None, false);
            let guarded = explore_under_both_hashers(&build, cfg);
            assert_eq!(guarded, explore(&build, cfg).visited, "{} under {}", l.name, sc.label);
            visited += guarded;
        }
    }
    assert_eq!(visited, 11_828 + 12_804, "the corpus pass and the four-cluster litmus");
}
