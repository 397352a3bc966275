//! # scd-machine — the full DASH machine model
//!
//! Assembles every substrate — caches ([`scd_mem`]), mesh interconnect
//! ([`scd_noc`]), directory schemes ([`scd_core`]), protocol state machines
//! ([`scd_protocol`]) and reference generation ([`scd_tango`]) — into an
//! event-driven multiprocessor simulator in the mold of the paper's §5
//! evaluation environment.
//!
//! ```
//! use scd_machine::{Machine, MachineConfig};
//! use scd_tango::{Op, Script};
//!
//! // Two clusters; processor 0 writes a block, processor 1 reads it.
//! let cfg = MachineConfig::tiny(2);
//! let programs = vec![
//!     Script::from(vec![Op::Write(0x40), Op::Barrier(0)]),
//!     Script::from(vec![Op::Barrier(0), Op::Read(0x40)]),
//! ];
//! let stats = Machine::new(cfg, programs).run();
//! assert_eq!(stats.shared_writes, 1);
//! assert!(stats.cycles > 0);
//! ```

#![warn(missing_docs)]

pub mod checker;
pub mod config;
pub mod error;
pub mod machine;
pub mod stats;

pub use checker::Violation;
pub use config::{MachineConfig, ProtocolKind, Timing};
pub use error::{PostMortem, SimError};
pub use machine::explore::{Choice, FaultEdges, Mutation};
pub use machine::{Machine, ValueOracleReport};
pub use stats::{DlsCounters, FaultCounters, RunStats, TardisCounters};

/// A serial [`Machine`] under the name the deleted sharded engine had,
/// kept only because the frozen `benchmark/` crate still calls it; it
/// goes with ROADMAP.md item 1(a). `new` ignores `shards`.
#[doc(hidden)]
pub struct ShardedMachine(Machine);

impl ShardedMachine {
    /// A serial machine; `shards` is ignored and the result is always `Ok`.
    pub fn new(cfg: MachineConfig, programs: Vec<scd_tango::Script>, _shards: usize) -> Result<Self, String> {
        Ok(ShardedMachine(Machine::new(cfg, programs)))
    }
}

impl std::ops::Deref for ShardedMachine {
    type Target = Machine;
    fn deref(&self) -> &Machine {
        &self.0
    }
}

impl std::ops::DerefMut for ShardedMachine {
    fn deref_mut(&mut self) -> &mut Machine {
        &mut self.0
    }
}
