//! The engine allocates (almost) nothing per event: a counting global
//! allocator around one `lu` run at the canonical sparse point, 16
//! clusters, holds heap allocations per delivered event under a ceiling.
//!
//! A miss used to allocate its MSHR's waiter list, every invalidation and
//! replacement its target `NodeSet`'s words, and every sparse replacement
//! an `eligible` vector: 0.27 allocations per event on this run. The run
//! path now keeps the waiters inline, refills target sets in place and
//! picks victims in place, so what is left is the growth of tables (the
//! wheel's slab, hash maps, serializer queues) that then stay put.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use scd::apps::{lu, LuParams};
use scd::core::Scheme;
use scd::machine::{Machine, MachineConfig};
use bench::{sparse_config_with, SparseVariant, CANONICAL_SPARSE};

/// Every allocation call (`alloc`, `alloc_zeroed`, `realloc`) since start.
static CALLS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter has no effect on memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Ceiling on heap allocations per delivered event over a whole run.
const MAX_ALLOCS_PER_EVENT: f64 = 0.05;

#[test]
fn a_sparse_lu_run_allocates_almost_nothing_per_event() {
    let SparseVariant::Sparse {
        size_factor,
        ways,
        policy,
    } = CANONICAL_SPARSE
    else {
        unreachable!("the canonical point is sparse")
    };
    let app = lu(&LuParams::scaled(1.0), 16, 0);
    let mut base = MachineConfig::paper_32().with_scheme(Scheme::dir_cv(4, 4));
    base.clusters = 16;
    let cfg = sparse_config_with(base, &app, size_factor, ways, policy);
    let mut m = Machine::new(cfg, app.scripts());

    let before = CALLS.load(Ordering::Relaxed);
    let stats = m.try_run().expect("lu runs to completion");
    let calls = CALLS.load(Ordering::Relaxed) - before;

    let events = stats.events_delivered;
    let sparse = stats.sparse.expect("a sparse directory");
    assert!(sparse.replacements > 0, "the run must exercise replacement");
    assert!(events > 100_000, "too short a run to measure: {events} events");
    let per_event = calls as f64 / events as f64;
    assert!(
        per_event <= MAX_ALLOCS_PER_EVENT,
        "{calls} allocations over {events} events = {per_event:.4} per event \
         (ceiling {MAX_ALLOCS_PER_EVENT})"
    );
}
