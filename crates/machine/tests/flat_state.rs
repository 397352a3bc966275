//! What must not depend on how the machine's tables came to hold their
//! state: a post-mortem's text on the order blocks became busy, and the
//! exploration digest on how far a home's dense tables once grew — or on
//! which of a machine and its mid-run clone is asked.

use scd_machine::machine::testing;
use scd_machine::{FaultEdges, Machine, MachineConfig};
use scd_tango::{Op, Script};

fn machine(cfg: MachineConfig, scripts: Vec<Vec<Op>>) -> Machine {
    Machine::new(cfg, scripts.into_iter().map(Script::from).collect())
}

#[test]
fn post_mortem_of_one_stuck_state_renders_one_text() {
    // Home 2 of a 4-cluster machine owns blocks 2, 6, 10, ...: leave five
    // of them busy, marked in two different orders, then let both runs die
    // on the cycle budget.
    let blocks = [18u64, 2, 14, 6, 10];
    let render = |order: &mut dyn Iterator<Item = u64>| {
        let mut cfg = MachineConfig::tiny(4);
        cfg.max_cycles = 10;
        let mut m = machine(cfg, vec![vec![Op::Compute(100), Op::Read(0)]; 4]);
        for b in order {
            testing::mark_busy(&mut m, 2, b);
        }
        m.try_run()
            .expect_err("the budget is shorter than the program")
            .to_string()
    };
    let forward = render(&mut blocks.iter().copied());
    let backward = render(&mut blocks.iter().rev().copied());
    assert_eq!(forward, backward);
    let busy_line = forward
        .lines()
        .find(|l| l.contains("cluster 2:"))
        .expect("the stuck home is listed");
    let at = |b: u64| {
        busy_line
            .find(&format!("({b}, "))
            .expect("every busy block is listed")
    };
    assert!(
        at(2) < at(6) && at(6) < at(10) && at(10) < at(14) && at(14) < at(18),
        "busy blocks in block order: {busy_line}"
    );
}

#[test]
fn digest_forgets_a_block_that_was_touched_and_released() {
    let scripts = || {
        vec![
            vec![Op::Write(16), Op::Read(32)],
            vec![Op::Read(16), Op::Write(32)],
            vec![Op::Read(16)],
        ]
    };
    let mut plain = machine(MachineConfig::tiny(3), scripts());
    let mut grown = machine(MachineConfig::tiny(3), scripts());
    // Block 30_002's home is cluster 2; its entry lives 10_000 slots into
    // that home's table, which grows to hold it and keeps the room after
    // the entry is released.
    testing::force_shared_entry(&mut grown, 2, 30_002, &[0, 1]);
    assert_ne!(plain.state_digest(), grown.state_digest());
    testing::clear_entry(&mut grown, 2, 30_002);
    assert_eq!(plain.state_digest(), grown.state_digest());

    // ... and the two stay indistinguishable along a whole interleaving
    // (always the last enabled choice, to get off the default schedule).
    plain.begin_exploration();
    grown.begin_exploration();
    let mut steps = 0;
    loop {
        let choices = plain.exploration_choices(&FaultEdges::none());
        assert_eq!(choices, grown.exploration_choices(&FaultEdges::none()));
        let Some(&choice) = choices.last() else { break };
        plain.step_explore(choice).expect("the protocol is sound");
        grown.step_explore(choice).expect("the protocol is sound");
        assert_eq!(
            plain.state_digest(),
            grown.state_digest(),
            "after step {steps}"
        );
        steps += 1;
    }
    assert!(steps > 10, "the scripts ran ({steps} steps)");
    plain
        .finalize_exploration()
        .expect("quiescent and coherent");
    grown
        .finalize_exploration()
        .expect("quiescent and coherent");
}

/// What `Machine: Clone` owes the explorer: a clone taken mid-run is the
/// same state, stepping one does not move the other, and the same choices
/// from the branch point end in the same statistics.
#[test]
fn a_mid_run_clone_is_the_same_state_and_an_independent_future() {
    let mut original = machine(
        MachineConfig::tiny(3),
        vec![
            vec![Op::Write(16), Op::Read(32), Op::Write(16)],
            vec![Op::Read(16), Op::Write(32)],
            vec![Op::Read(16), Op::Read(32)],
        ],
    );
    original.begin_exploration();
    let none = FaultEdges::none();
    for _ in 0..6 {
        let choice = *original.exploration_choices(&none).last().expect("still running");
        original.step_explore(choice).expect("the protocol is sound");
    }
    let mut branch = original.clone();
    assert_eq!(original.state_digest(), branch.state_digest());
    let choices = original.exploration_choices(&none);
    assert_eq!(choices, branch.exploration_choices(&none));

    let choice = *choices.last().expect("still running");
    original.step_explore(choice).expect("the protocol is sound");
    assert_ne!(original.state_digest(), branch.state_digest(), "only one of them stepped");
    branch.step_explore(choice).expect("the protocol is sound");
    assert_eq!(original.state_digest(), branch.state_digest());

    while let Some(&choice) = original.exploration_choices(&none).last() {
        original.step_explore(choice).expect("the protocol is sound");
        branch.step_explore(choice).expect("the protocol is sound");
    }
    let a = original.finalize_exploration().expect("quiescent and coherent");
    let b = branch.finalize_exploration().expect("quiescent and coherent");
    assert!(a.shared_refs() == 7 && a.cycles > 0, "the scripts ran to their ends");
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
}
