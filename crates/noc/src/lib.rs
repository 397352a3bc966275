//! # scd-noc — scalable interconnection network
//!
//! DASH clusters are "interconnected by a mesh network" (§2). This crate
//! models that substrate: a 2D mesh [`Mesh`] with dimension-ordered (X-then-
//! Y) routing, a pluggable [`LatencyModel`], and per-network accounting of
//! messages and hop counts.
//!
//! The network is latency-only (no link contention): the paper's headline
//! metric is message *counts*, which are exact, and its 1-processor-per-
//! cluster runs leave buses and links underutilized anyway (§6.2 discusses
//! this explicitly). The mesh still routes every message, so hop
//! distributions — and therefore latency differences between near and far
//! clusters — are faithfully modeled.

#![warn(missing_docs)]

pub mod fault;
pub mod mesh;
pub mod network;

pub use fault::{FaultPlan, FAULT_CYCLES};
pub use mesh::{Mesh, RouteIter};
pub use network::{LatencyModel, LinkCounters, Network, NetworkStats};
