//! The quiescent invariant checker's error branches, exercised directly by
//! hand-corrupting machine state (via `scd_machine::machine::testing`) —
//! each corruption is one that only a protocol bug could produce, so no
//! workload can reach these branches honestly.

use scd_machine::checker::verify_quiescent;
use scd_machine::machine::testing;
use scd_machine::{Machine, MachineConfig};
use scd_tango::{Op, Script};

/// A fresh, never-run 4-cluster machine (quiescent by construction).
fn idle_machine() -> Machine {
    let cfg = MachineConfig::tiny(4);
    let programs = (0..cfg.processors()).map(|_| Script::from(vec![])).collect();
    Machine::new(cfg, programs)
}

#[test]
fn pristine_machine_verifies() {
    let m = idle_machine();
    assert_eq!(verify_quiescent(&m), Ok(()));
}

#[test]
fn busy_serializer_block_is_reported() {
    let mut m = idle_machine();
    testing::mark_busy(&mut m, 2, 6);
    let err = verify_quiescent(&m).unwrap_err().to_string();
    assert!(err.contains("busy blocks"), "{err}");
    assert!(err.contains("cluster 2"), "{err}");
}

#[test]
fn multiple_dirty_holders_are_reported() {
    let mut m = idle_machine();
    // Block 2's home is cluster 2; clusters 0 and 1 both claim it dirty.
    testing::fill_line(&mut m, 0, 0, 2, true);
    testing::fill_line(&mut m, 1, 0, 2, true);
    testing::force_dirty_entry(&mut m, 2, 2, 0);
    let err = verify_quiescent(&m).unwrap_err().to_string();
    assert!(err.contains("multiple dirty holders"), "{err}");
}

#[test]
fn dirty_copy_without_a_home_entry_is_reported() {
    let mut m = idle_machine();
    // Cluster 0 holds block 1 dirty but its home (cluster 1) lost the entry.
    testing::fill_line(&mut m, 0, 0, 1, true);
    let err = verify_quiescent(&m).unwrap_err().to_string();
    assert!(err.contains("dirty but home 1 has no entry"), "{err}");
}

#[test]
fn dirty_copy_with_a_mismatched_entry_is_reported() {
    let mut m = idle_machine();
    testing::fill_line(&mut m, 0, 0, 1, true);
    // The entry exists but says Shared — a downgrade the owner never saw.
    testing::force_shared_entry(&mut m, 1, 1, &[0]);
    let err = verify_quiescent(&m).unwrap_err().to_string();
    assert!(err.contains("entry says"), "{err}");

    let mut m = idle_machine();
    testing::fill_line(&mut m, 0, 0, 1, true);
    // Dirty, but the recorded owner is a different cluster.
    testing::force_dirty_entry(&mut m, 1, 1, 3);
    let err = verify_quiescent(&m).unwrap_err().to_string();
    assert!(err.contains("entry says"), "{err}");
}

#[test]
fn home_recorded_in_its_own_directory_is_reported() {
    let mut m = idle_machine();
    testing::fill_line(&mut m, 0, 0, 1, false);
    // A precise entry must never cover its own home cluster (1).
    testing::force_shared_entry(&mut m, 1, 1, &[0, 1]);
    let err = verify_quiescent(&m).unwrap_err().to_string();
    assert!(err.contains("recorded in its own directory"), "{err}");
}

#[test]
fn shared_copy_without_a_home_entry_is_reported() {
    let mut m = idle_machine();
    testing::fill_line(&mut m, 0, 0, 1, false);
    let err = verify_quiescent(&m).unwrap_err().to_string();
    assert!(err.contains("holds a copy but home 1 has no entry"), "{err}");
}

#[test]
fn uncovered_sharer_is_reported() {
    let mut m = idle_machine();
    testing::fill_line(&mut m, 0, 0, 1, false);
    testing::fill_line(&mut m, 2, 0, 1, false);
    // The entry only covers cluster 0; cluster 2's copy is untracked.
    testing::force_shared_entry(&mut m, 1, 1, &[0]);
    let err = verify_quiescent(&m).unwrap_err().to_string();
    assert!(err.contains("not covered"), "{err}");
    assert!(err.contains("cluster 2"), "{err}");
}

/// An event delivered from behind the wheel's clock is a structured
/// invariant violation with a post-mortem, not a panic inside the queue —
/// on a fault edge too, which never reaches the normal delivery path.
#[test]
fn delivery_behind_the_clock_is_an_invariant_violation() {
    use scd_machine::Choice;
    for choice in [Choice::Ready { idx: 0 }, Choice::Nack { idx: 0 }] {
        let mut m = idle_machine();
        m.begin_exploration();
        testing::warp_clock(&mut m, 5);
        let err = m.step_explore(choice).unwrap_err();
        assert_eq!(err.kind(), "invariant-violation", "{choice:?}: {err}");
        let pm = err.post_mortem();
        assert_eq!(pm.cycle, 0, "the post-mortem names the stale event's time");
        assert!(pm.detail.contains("clock backwards (0 < 5)"), "{}", pm.detail);
        assert_eq!(pm.running, m.config().processors(), "nothing ran");
    }
}

/// A version regression is a structured invariant violation with a
/// post-mortem, not a panic: cluster 0 reads its copy of block 1 at a
/// planted version 5, then upgrades it, and the home hands out version 1.
#[test]
fn a_version_regression_is_an_invariant_violation() {
    let cfg = MachineConfig::tiny(4);
    let addr = cfg.block_bytes; // block 1
    let mut programs: Vec<Script> = (0..cfg.processors()).map(|_| Script::from(vec![])).collect();
    programs[0] = Script::from(vec![Op::Read(addr), Op::Write(addr)]);
    let mut m = Machine::new(cfg, programs);
    testing::fill_line(&mut m, 0, 0, 1, false);
    testing::set_line_version(&mut m, 0, 1, 5);
    let err = m.try_run().unwrap_err();
    assert_eq!(err.kind(), "invariant-violation", "{err}");
    let detail = &err.post_mortem().detail;
    assert_eq!(
        detail,
        "version oracle: cluster 0 observed block 1 at version 1 after already seeing version 5"
    );
}
