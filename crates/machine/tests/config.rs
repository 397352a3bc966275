//! `Machine::try_new`: the geometry `MachineConfig::validate` refuses
//! before any constructor downstream asserts on it, and the one program
//! per processor the machine needs.

use scd_core::{Replacement, Scheme};
use scd_machine::{Machine, MachineConfig};
use scd_tango::Script;

fn programs(n: usize) -> Vec<Script> {
    (0..n).map(|_| Script::from(Vec::new())).collect()
}

#[test]
fn validate_refuses_each_bad_geometry_naming_field_and_value() {
    let ok = |c: MachineConfig| {
        let n = c.processors();
        if let Err(e) = Machine::try_new(c, programs(n)) {
            panic!("refused: {e}");
        }
    };
    ok(MachineConfig::paper_32());
    ok(MachineConfig::tiny(3));
    // `with_overflow` builds a valid overflow machine: it sets `Dir_i NB`.
    ok(MachineConfig::paper_32().with_overflow(3, 64, 4, Replacement::Lru));
    let refused = |c: MachineConfig, n: usize, needle: &str| {
        let e = Machine::try_new(c, programs(n)).err().expect(needle);
        assert!(e.contains(needle), "`{e}` lacks `{needle}`");
    };
    let bad = |edit: fn(&mut MachineConfig), needle: &str| {
        let mut c = MachineConfig::paper_32();
        edit(&mut c);
        let n = c.processors();
        refused(c, n, needle);
    };
    refused(MachineConfig::tiny(3), 2, "programs = 2 for 3 processors");
    bad(|c| c.clusters = 0, "clusters = 0");
    bad(|c| c.clusters = 70_000, "clusters = 70000");
    bad(|c| c.procs_per_cluster = 0, "procs_per_cluster = 0");
    bad(|c| c.l2_ways = 3, "l2_blocks:l2_ways = 16384:3");
    bad(|c| c.scheme = Scheme::dir_b(0), "scheme pointer count = 0");
    bad(|c| c.scheme = Scheme::dir_cv(4, 0), "region size = 0");
    bad(|c| *c = c.clone().with_sparse(0, 1, Replacement::Lru), "sparse entries:ways = 0:1");
    bad(|c| *c = c.clone().with_sparse(6, 4, Replacement::Lru), "sparse entries:ways = 6:4");
    bad(
        |c| *c = c.clone().with_overflow(0, 4, 2, Replacement::Lru),
        "overflow pointer count = 0",
    );
    bad(
        |c| *c = c.clone().with_overflow(2, 5, 2, Replacement::Lru),
        "overflow wide entries:ways = 5:2",
    );
    // The overflow organization's small entries are `Dir_i NB`, nothing else.
    bad(
        |c| *c = c.clone().with_overflow(3, 64, 4, Replacement::Lru).with_scheme(Scheme::dir_cv(3, 2)),
        "scheme = Dir3CV2 under organization = overflow (its entries are Dir3NB",
    );
    bad(
        |c| *c = c.clone().with_overflow(3, 64, 4, Replacement::Lru).with_scheme(Scheme::dir_nb(2)),
        "scheme = Dir2NB under organization = overflow (its entries are Dir3NB",
    );
    // A plan built in code meets the bound a parsed `--fault` spec meets.
    bad(
        |c| c.fault_plan = Some(scd_noc::FaultPlan::delay(1.0, u64::MAX)),
        "fault delay cycle bound = 18446744073709551615",
    );
}
