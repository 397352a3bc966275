//! The engine allocates (almost) nothing per event: a counting global
//! allocator around one `lu` run at the canonical sparse point, 16
//! clusters, holds heap allocations per delivered event under a ceiling.
//! The model checker allocates little per state: the same allocator
//! around the litmus corpus's explorations holds allocations per visited
//! state under a second one.
//!
//! A miss used to allocate its MSHR's waiter list, every invalidation and
//! replacement its target `NodeSet`'s words, and every sparse replacement
//! an `eligible` vector: 0.27 allocations per event on this run. The run
//! path now keeps the waiters inline, refills target sets in place and
//! picks victims in place, so what is left is the growth of tables (the
//! wheel's slab, hash maps, serializer queues) that then stay put.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use scd::check::{corpus, explore, scenarios, ExploreConfig};
use scd::machine::FaultEdges;

use scd::apps::{lu, LuParams};
use scd::core::Scheme;
use scd::machine::{Machine, MachineConfig};
use bench::{sparse_config_with, SparseVariant, CANONICAL_SPARSE};

thread_local! {
    /// Every allocation call (`alloc`, `alloc_zeroed`, `realloc`) this
    /// thread has made: per thread, so the tests can run side by side.
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // A `const` cell with no destructor: the access neither allocates
    // nor fails during thread teardown.
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
}

fn calls() -> u64 {
    CALLS.with(Cell::get)
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter has no effect on memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
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

    let before = calls();
    let stats = m.try_run().expect("lu runs to completion");
    let calls = calls() - before;

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

/// Ceiling on heap allocations per visited state over the litmus corpus,
/// plain and with the fault edges `check_corpus` adds: 2.21 measured, plus
/// a quarter. Branching by `clone` cost 9.22: every child a fresh copy of
/// every table, 13 allocations for a 2-cluster machine. A branch is now a
/// `clone_from` into a spare machine, whose buffers it refills; a state
/// type that derives `Clone` instead of refilling field by field allocates
/// again on every branch, and this is what fails.
const MAX_ALLOCS_PER_STATE: f64 = 2.76;

#[test]
fn exploring_the_corpus_allocates_little_per_state() {
    // The edges `check_corpus` adds to each litmus's own.
    let faulty = FaultEdges {
        nack: true,
        delay: Some(40),
        dup: Some(40),
    };
    let (corpus, scenarios) = (corpus(), scenarios());
    let (mut calls_total, mut states) = (0, 0);
    for faults in [None, Some(faulty)] {
        for l in &corpus {
            for s in &scenarios {
                let cfg = ExploreConfig {
                    faults: faults.unwrap_or(l.faults),
                    fault_budget: l.fault_budget,
                    ..ExploreConfig::default()
                };
                let before = calls();
                let out = explore(&|| l.build(s, None, false), &cfg);
                calls_total += calls() - before;
                assert!(out.violation.is_none() && !out.truncated, "{} on {}", l.name, s.label);
                states += out.visited;
            }
        }
    }
    let per_state = calls_total as f64 / states as f64;
    println!("{calls_total} allocations over {states} states = {per_state:.3} per state");
    assert!(
        per_state <= MAX_ALLOCS_PER_STATE,
        "{calls_total} allocations over {states} visited states = {per_state:.3} per state \
         (ceiling {MAX_ALLOCS_PER_STATE})"
    );
}
