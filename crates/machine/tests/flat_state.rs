//! What must not depend on how the machine's tables came to hold their
//! state: a post-mortem's text on the order blocks became busy, and the
//! exploration digest on how far a home's dense tables once grew — or on
//! which of a machine, its mid-run clone and a spare refilled from it is
//! asked.

use scd_machine::machine::testing;
use scd_machine::{Choice, FaultEdges, Machine, MachineConfig, ProtocolKind};
use scd_noc::FaultPlan;
use scd_tango::{Op, Script};

fn machine(cfg: MachineConfig, scripts: Vec<Vec<Op>>) -> Machine {
    Machine::new(cfg, scripts.into_iter().map(Script::from).collect())
}

fn choices(m: &mut Machine, faults: &FaultEdges) -> Vec<Choice> {
    let mut out = Vec::new();
    m.exploration_choices(faults, &mut out);
    out
}

/// How a drained machine ends: its statistics, or the error text.
fn ending(m: &mut Machine) -> String {
    match m.finalize_exploration() {
        Ok(stats) => format!("{stats:?}"),
        Err(e) => e.to_string(),
    }
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
        let choices = choices(&mut plain, &FaultEdges::none());
        assert_eq!(choices, self::choices(&mut grown, &FaultEdges::none()));
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
/// from the branch point end in the same statistics. The explorer's other
/// way to branch, `clone_from` into a spare machine, owes the same: each
/// spare here was built from other programs on another cluster count,
/// protocol and fault plan, and run part way with fault edges, so every
/// table it holds has to be refilled, not kept.
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
        let choice = *choices(&mut original, &none).last().expect("still running");
        original.step_explore(choice).expect("the protocol is sound");
    }
    let faults = FaultEdges {
        nack: true,
        delay: Some(5),
        dup: Some(3),
    };
    let spare = |clusters: usize, protocol: ProtocolKind, plan: FaultPlan| {
        let cfg = MachineConfig::tiny(clusters).with_protocol(protocol);
        let cfg = MachineConfig { fault_plan: Some(plan), ..cfg };
        let far = 2 * clusters as u64;
        let scripts = (0..clusters as u64)
            .map(|c| vec![Op::Read(c), Op::Write(c + 1), Op::Read(far + c)])
            .collect();
        let mut m = machine(cfg, scripts);
        m.tolerate_faults();
        m.begin_exploration();
        for step in 0..12 {
            let choices = choices(&mut m, &faults);
            let Some(&choice) = choices.get(step % 3).or(choices.first()) else {
                break;
            };
            m.step_explore(choice).expect("the protocol is sound");
        }
        m
    };
    let mut branches = vec![original.clone()];
    for mut m in [
        spare(2, ProtocolKind::Tardis, FaultPlan::nack(0.3)),
        spare(4, ProtocolKind::Dash, FaultPlan::delay(0.5, 9)),
    ] {
        m.clone_from(&original);
        branches.push(m);
    }
    let choices_now = choices(&mut original, &none);
    for branch in &mut branches {
        assert_eq!(original.state_digest(), branch.state_digest());
        assert_eq!(choices_now, choices(branch, &none));
    }

    let choice = *choices_now.last().expect("still running");
    original.step_explore(choice).expect("the protocol is sound");
    for branch in &mut branches {
        assert_ne!(original.state_digest(), branch.state_digest(), "only one of them stepped");
        branch.step_explore(choice).expect("the protocol is sound");
        assert_eq!(original.state_digest(), branch.state_digest());
    }

    let mut steps = 0;
    while let Some(&choice) = choices(&mut original, &none).last() {
        original.step_explore(choice).expect("the protocol is sound");
        for branch in &mut branches {
            branch.step_explore(choice).expect("the protocol is sound");
            assert_eq!(original.state_digest(), branch.state_digest(), "after step {steps}");
        }
        steps += 1;
    }
    let a = original.finalize_exploration().expect("quiescent and coherent");
    assert!(a.shared_refs() == 7 && a.cycles > 0, "the scripts ran to their ends");
    for branch in &mut branches {
        assert_eq!(format!("{a:?}"), ending(branch));
    }
}
