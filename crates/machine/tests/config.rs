//! `MachineConfig::validate`: the geometry a front end must refuse before
//! any constructor downstream asserts on it.

use scd_core::{Replacement, Scheme};
use scd_machine::MachineConfig;

#[test]
fn validate_refuses_each_bad_geometry_naming_field_and_value() {
    let ok = MachineConfig::paper_32();
    assert_eq!(ok.validate(), Ok(()));
    assert_eq!(MachineConfig::tiny(3).validate(), Ok(()));
    let bad = |edit: fn(&mut MachineConfig), needle: &str| {
        let mut c = MachineConfig::paper_32();
        edit(&mut c);
        let e = c.validate().expect_err(needle);
        assert!(e.contains(needle), "`{e}` lacks `{needle}`");
    };
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
    // A plan built in code meets the bound `FaultPlan::parse` holds.
    bad(
        |c| c.fault_plan = Some(scd_noc::FaultPlan::delay(1.0, u64::MAX)),
        "fault delay cycle bound = 18446744073709551615",
    );
}
