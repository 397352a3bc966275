//! # scd-tango — multiprocessor reference generation
//!
//! The paper drove its simulator with Tango (Davis, Goldschmidt & Hennessy),
//! which executes a parallel application and feeds its shared references to
//! a memory-system simulator, *coupled* so that simulated timing feeds back
//! into the interleaving of references.
//!
//! This crate reproduces that role. Each logical process is a [`Script`] —
//! a position in an immutable, shared [`Program`] of [`Op`]s, a word each.
//! The machine asks a processor for its next operation only when the
//! previous one has completed in simulated time, so memory timing decides
//! how the processes' streams interleave, as in Tango's coupled mode. (No workload here has
//! data-dependent control flow, so a list fetched on demand loses nothing
//! to a generator that runs code.)

#![warn(missing_docs)]

pub mod address;
pub mod op;

pub use address::{AddressSpace, Region};
pub use op::{Op, Program, Script};
