//! Property-based tests for the `Script` cursor: its position stands for
//! the rest of the program.

use proptest::prelude::*;
use scd_tango::{Op, Script};

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        any::<u64>().prop_map(Op::Read),
        any::<u64>().prop_map(Op::Write),
        any::<u64>().prop_map(Op::Compute),
        any::<u32>().prop_map(Op::Lock),
        any::<u32>().prop_map(Op::Unlock),
        any::<u32>().prop_map(Op::Barrier),
        Just(Op::Done),
    ]
}

/// `script` advanced by `n` fetches.
fn advanced(script: &Script, n: usize) -> Script {
    let mut s = script.clone();
    for _ in 0..n {
        s.next_op();
    }
    s
}

/// Everything a cursor will still hand out before its first implicit `Done`.
fn remaining(script: &Script, total: usize) -> Vec<Op> {
    let mut s = script.clone();
    (s.pos()..total).map(|_| s.next_op()).collect()
}

proptest! {
    /// Why `state_digest` may hash `Script::pos` in place of the remaining
    /// ops: over one script, two cursors are at equal positions exactly when
    /// they have equal futures — even when the ops repeat (or are `Done`).
    #[test]
    fn script_position_is_equal_iff_the_remaining_ops_are(
        ops in prop::collection::vec(op_strategy(), 0..40),
        fetches in (0usize..48, 0usize..48),
    ) {
        let script = Script::from(ops.clone());
        let (a, b) = (advanced(&script, fetches.0), advanced(&script, fetches.1));
        prop_assert_eq!(a.pos(), fetches.0.min(ops.len()));
        prop_assert_eq!(remaining(&a, ops.len()), &ops[a.pos()..]);
        prop_assert_eq!(
            a.pos() == b.pos(),
            remaining(&a, ops.len()) == remaining(&b, ops.len())
        );
        // Drained, a script says `Done` for as long as it is asked.
        let mut drained = advanced(&script, ops.len());
        for _ in 0..3 {
            prop_assert_eq!(drained.next_op(), Op::Done);
            prop_assert_eq!(drained.pos(), ops.len());
        }
    }
}
