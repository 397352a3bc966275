//! The first litmus above three clusters. It lives with the tests and not
//! in `corpus()` because the benchmark's `check_corpus` work is defined by
//! the corpus: message passing with a second reader, on four clusters,
//! with both blocks homed at the idle fourth so every copy the writer must
//! invalidate is directory-tracked and the fan-out reaches two sharers.

use scd_check::{ExploreConfig, Litmus};
use scd_machine::FaultEdges;
use scd_tango::Op::{Read, Write};

/// data = block 3, flag = block 7 (16-byte blocks), both homed at cluster 3.
pub fn message_passing_two_readers(fault_budget: u32) -> Litmus {
    let (data, flag) = (3 * 16, 7 * 16);
    Litmus {
        name: "message-passing-two-readers",
        summary: "MP on four clusters: one writer, two polling readers, idle home",
        clusters: 4,
        programs: vec![
            vec![Write(data), Write(flag)].into(),
            vec![Read(flag), Read(data), Read(flag)].into(),
            vec![Read(data), Read(flag)].into(),
            vec![].into(),
        ],
        faults: FaultEdges {
            nack: true,
            delay: Some(40),
            dup: Some(40),
        },
        fault_budget,
    }
}

/// A litmus's own edges and budget, default bounds.
pub fn cfg_for(l: &Litmus) -> ExploreConfig {
    ExploreConfig {
        faults: l.faults,
        fault_budget: l.fault_budget,
        ..ExploreConfig::default()
    }
}
