//! Four clusters: the litmus in `common` under every scenario, at fault
//! budgets 1 and 2, and the seeded skip-invalidation bug caught there.

mod common;

use common::{cfg_for, message_passing_two_readers};
use scd_check::{explore, scenarios, Litmus};
use scd_machine::{Mutation, ProtocolKind};

/// Explores the litmus under every scenario, clean and untruncated, and
/// returns the states visited, which the callers pin.
fn explores_clean(l: &Litmus) -> u64 {
    let cfg = cfg_for(l);
    let mut visited = 0;
    for sc in scenarios() {
        let out = explore(&|| l.build(&sc, None, false), &cfg);
        assert!(
            out.violation.is_none(),
            "{}: {}",
            sc.label,
            out.violation.unwrap().error
        );
        assert!(!out.truncated, "{} truncated", sc.label);
        assert!(out.leaves > 0);
        visited += out.visited;
    }
    visited
}

#[test]
fn four_clusters_one_fault_explores_clean() {
    assert_eq!(explores_clean(&message_passing_two_readers(1)), 12_804);
}

/// About 5,000 states per scenario: a few seconds in a debug build.
#[test]
fn four_clusters_two_faults_explores_clean() {
    assert_eq!(explores_clean(&message_passing_two_readers(2)), 67_925);
}

/// The seeded skip-invalidation bug is still caught with the extra
/// cluster, on every directory scenario.
#[test]
fn four_clusters_skip_inval_is_caught_on_every_dash_scenario() {
    let l = message_passing_two_readers(1);
    let cfg = cfg_for(&l);
    for sc in scenarios() {
        if sc.protocol != ProtocolKind::Dash {
            continue;
        }
        let out = explore(&|| l.build(&sc, Some(Mutation::SkipInval), false), &cfg);
        let found = out
            .violation
            .unwrap_or_else(|| panic!("{}: skip-inval survived {} states", sc.label, out.visited));
        assert!(
            found.error.contains("block"),
            "{}: {}",
            sc.label,
            found.error
        );
    }
}
