//! # scd-core — scalable directory-based cache coherence schemes
//!
//! This crate implements the primary contribution of Gupta, Weber & Mowry,
//! *"Reducing Memory and Traffic Requirements for Scalable Directory-Based
//! Cache Coherence Schemes"* (ICPP 1990):
//!
//! * the **coarse vector** directory scheme `Dir_i CV_r` ([`entry`]), along
//!   with the schemes it is compared against — full bit vector `Dir_N`,
//!   limited pointers with broadcast `Dir_i B`, without broadcast
//!   `Dir_i NB`, and the composite-pointer superset scheme `Dir_i X`;
//! * **sparse directories** ([`sparse`]) — a set-associative directory cache
//!   with no backing store, with LRU / random / LRA replacement;
//! * the directory **memory-overhead model** ([`mod@overhead`]) reproducing the
//!   paper's Table 1 arithmetic;
//! * the **Monte-Carlo invalidation analysis** ([`analysis`]) reproducing
//!   Figure 2.
//!
//! The crate is deliberately free of any simulator machinery: entries report
//! *what must be invalidated*; sending messages and collecting
//! acknowledgements belongs to `scd-protocol`. What it does share with the
//! layers above is [`flat`]: the dense table and the one fixed-hasher map
//! alias that directory storage, protocol and machine state are kept in.
//!
//! ## Quick example
//!
//! ```
//! use scd_core::{DirEntry, Scheme};
//!
//! // Dir3CV2 on a 32-cluster machine: 3 pointers, then regions of 2.
//! let mut e = DirEntry::new(Scheme::dir_cv(3, 2), 32);
//! for n in [4, 9, 20, 21] {
//!     e.add_sharer(n);
//! }
//! // Overflowed: the entry now tracks regions {4,5} {8,9} {20,21}.
//! let targets = e.invalidation_targets(9);
//! assert_eq!(targets.iter().collect::<Vec<_>>(), vec![4, 5, 8, 20, 21]);
//! ```

#![warn(missing_docs)]

pub mod analysis;
pub mod entry;
pub mod flat;
pub mod node_set;
pub mod overflow;
pub mod overhead;
pub mod scheme;
pub mod sparse;
pub mod store;

pub use entry::{AddSharer, DirEntry, DirState, ReprKind, MAX_POINTERS};
pub use flat::{hash_unordered, DenseTable, FastMap, FastSet, FixedHasher};
pub use node_set::{NodeId, NodeSet};
pub use overhead::{overhead, DirectoryChoice, MachineSpec, OverheadReport};
pub use scheme::{ptr_bits, NbVictim, Scheme};
pub use sparse::{ChurnStats, Replacement, SparseDirectory, SparseStats, CHURN_DISTANCE_BUCKETS};
pub use overflow::{OverflowAdd, OverflowDirectory, OverflowStats};
pub use store::{DirectoryStore, EntryAccess, Organization, RecordSharer};
