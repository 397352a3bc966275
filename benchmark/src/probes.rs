//! Layer probes: seeded operations straight into one layer's public type,
//! sized by the workload's machine geometry.
//!
//! A probe answers "what does one operation of this layer cost on this
//! host, alone": no handler around it, a warm instruction cache, a key
//! stream it does not share with the other layers. The `*_share_est`
//! metrics multiply these costs by the counts of a real pass, so they are
//! estimates from outside the engine; the profiler inside it is ROADMAP
//! item 1.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use scd_core::{
    sparse::Allocation, AddSharer, DirEntry, DirectoryStore, Organization, SparseDirectory,
};
use scd_machine::MachineConfig;
use scd_mem::{CacheHierarchy, HitLevel, LineState};
use scd_noc::Network;
use scd_protocol::{Msg, MsgArena, MsgKind};
use scd_sim::{EventQueue, SimRng};
use scd_trace::{event_line, EventKind, PatternTable, Phase, TraceEvent};

/// In-flight events kept in the wheel probe, as in
/// `crates/bench/benches/sim_hot_path.rs`.
const WHEEL_POPULATION: usize = 512;
/// Messages alive at once in the arena probe.
const ARENA_LIVE: usize = 256;

/// Nanoseconds per operation of `f`, which performs `ops` operations.
fn ns_per_op(ops: usize, f: impl FnOnce() -> u64) -> f64 {
    let t = Instant::now();
    black_box(f());
    t.elapsed().as_nanos() as f64 / ops as f64
}

/// Sim-realistic delays: mostly short bus and directory timings, some
/// cross-mesh latencies, a few far timers.
fn delay(rng: &mut SimRng) -> u64 {
    match rng.below(100) {
        0..=79 => rng.below(64),
        80..=97 => 64 + rng.below(448),
        _ => 4_000 + rng.below(60_000),
    }
}

fn wheel(ops: usize, rng: &mut SimRng) -> f64 {
    let delays: Vec<u64> = (0..ops).map(|_| delay(rng)).collect();
    ns_per_op(ops, || {
        let mut q = EventQueue::new();
        for (i, &d) in delays.iter().take(WHEEL_POPULATION).enumerate() {
            q.schedule(d, i as u32);
        }
        let mut next = WHEEL_POPULATION.min(ops);
        let mut acc = 0u64;
        while let Some((t, ev)) = q.pop() {
            acc = acc.wrapping_mul(31).wrapping_add(t ^ u64::from(ev));
            if next < ops {
                q.schedule(delays[next], next as u32);
                next += 1;
            }
        }
        acc
    })
}

/// The block keys a home sees: a working set a few times the store's
/// capacity, so sparse stores replace and dense ones grow.
fn keys(ops: usize, span: u64, rng: &mut SimRng) -> Vec<u64> {
    (0..ops).map(|_| rng.below(span.max(1))).collect()
}

fn entry(ops: usize, cfg: &MachineConfig, rng: &mut SimRng) -> f64 {
    let nodes: Vec<u16> = (0..ops).map(|_| rng.index(cfg.clusters) as u16).collect();
    ns_per_op(ops, || {
        let mut e = DirEntry::new(cfg.scheme, cfg.clusters);
        let mut acc = 0u64;
        // Five sharers join, a writer invalidates them, the entry clears:
        // one write-sharing round per seven operations.
        for (i, &n) in nodes.iter().enumerate() {
            match i % 7 {
                0..=4 => acc += (e.add_sharer(n) == AddSharer::Recorded) as u64,
                5 => acc += e.invalidation_targets(n).len() as u64,
                _ => e.clear(),
            }
        }
        acc
    })
}

fn store(ops: usize, cfg: &MachineConfig, rng: &mut SimRng) -> f64 {
    let keys = keys(ops, 1 << 16, rng);
    ns_per_op(ops, || {
        let mut s = DirectoryStore::new(cfg.scheme, cfg.clusters, Organization::Complete, cfg.seed);
        let mut acc = 0u64;
        for (t, &k) in keys.iter().enumerate() {
            if let scd_core::EntryAccess::Ready(e) = s.entry_mut(k, t as u64, |_| false) {
                acc +=
                    (e.add_sharer((k % cfg.clusters as u64) as u16) == AddSharer::Recorded) as u64;
            }
        }
        acc
    })
}

fn sparse(ops: usize, cfg: &MachineConfig, rng: &mut SimRng) -> Option<f64> {
    let Organization::Sparse {
        entries,
        ways,
        policy,
    } = cfg.organization
    else {
        return None;
    };
    let keys = keys(ops, entries as u64 * 4, rng);
    Some(ns_per_op(ops, || {
        let mut sd =
            SparseDirectory::new(cfg.scheme, cfg.clusters, entries, ways, policy, cfg.seed);
        let mut acc = 0u64;
        for (t, &k) in keys.iter().enumerate() {
            let t = t as u64;
            // The home's pattern: look the block up, allocate on a miss.
            if sd.lookup(k, t).is_some() {
                acc += 1;
                continue;
            }
            match sd.allocate(k, t) {
                Allocation::Hit(e) | Allocation::Inserted(e) => {
                    e.add_sharer((k % cfg.clusters as u64) as u16);
                }
                Allocation::Replaced { entry, .. } => {
                    entry.add_sharer((k % cfg.clusters as u64) as u16);
                    acc += 2;
                }
            }
        }
        acc
    }))
}

fn cache(ops: usize, cfg: &MachineConfig, rng: &mut SimRng) -> f64 {
    let keys = keys(ops, cfg.l2_blocks as u64 * 2, rng);
    ns_per_op(ops, || {
        let mut h = CacheHierarchy::new(cfg.l1_blocks, cfg.l1_ways, cfg.l2_blocks, cfg.l2_ways);
        let mut acc = 0u64;
        for (t, &k) in keys.iter().enumerate() {
            if h.access(k, t as u64) == HitLevel::Miss {
                acc += h.fill(k, LineState::Shared, t as u64).is_some() as u64;
            }
        }
        acc
    })
}

fn send(ops: usize, cfg: &MachineConfig, rng: &mut SimRng) -> f64 {
    let pairs: Vec<(usize, usize)> = (0..ops)
        .map(|_| (rng.index(cfg.clusters), rng.index(cfg.clusters)))
        .collect();
    ns_per_op(ops, || {
        let mut net = Network::new(cfg.clusters, cfg.latency);
        let mut acc = 0u64;
        for (i, &(s, d)) in pairs.iter().enumerate() {
            acc += net.send(i as u64, s, d);
        }
        acc
    })
}

fn arena(ops: usize, cfg: &MachineConfig, rng: &mut SimRng) -> f64 {
    let msgs: Vec<Msg> = (0..ops)
        .map(|_| Msg {
            src: rng.index(cfg.clusters),
            dst: rng.index(cfg.clusters),
            kind: MsgKind::ReadReq {
                block: rng.below(1 << 16),
            },
        })
        .collect();
    ns_per_op(ops, || {
        let mut arena = MsgArena::with_capacity(ARENA_LIVE);
        let mut live = Vec::with_capacity(ARENA_LIVE);
        let mut acc = 0u64;
        for m in msgs {
            live.push(arena.alloc(m));
            if live.len() == ARENA_LIVE {
                for r in live.drain(..) {
                    let m = arena.take(r).expect("handles are taken once");
                    acc = acc.wrapping_add(m.kind.block().unwrap_or(0));
                }
            }
        }
        acc
    })
}

/// A transaction's worth of events in the mix a run records: begin, send,
/// deliver, phase, invalidation, end.
fn events(ops: usize, cfg: &MachineConfig, rng: &mut SimRng) -> Vec<TraceEvent> {
    (0..ops as u64)
        .map(|seq| {
            let block = rng.below(1 << 16);
            let (src, dst) = (
                rng.index(cfg.clusters) as u32,
                rng.index(cfg.clusters) as u32,
            );
            let txn = seq / 6;
            let kind = match seq % 6 {
                0 => EventKind::TxnBegin {
                    txn,
                    block,
                    write: rng.chance(0.3),
                },
                1 => EventKind::MsgSend {
                    src,
                    dst,
                    msg: "ReadReq",
                    class: "request",
                    block: Some(block),
                    hops: rng.below(8) as u32,
                },
                2 => EventKind::MsgDeliver {
                    src,
                    dst,
                    msg: "ReadReq",
                    block: Some(block),
                },
                3 => EventKind::TxnPhase {
                    txn,
                    block,
                    phase: Phase::HomeLookup,
                },
                4 => EventKind::Inval {
                    block,
                    targets: rng.below(5) as u32,
                    cause: "write",
                },
                _ => EventKind::TxnEnd {
                    txn,
                    block,
                    latency: 40 + rng.below(200),
                    retries: 0,
                },
            };
            TraceEvent {
                seq,
                cycle: seq * 3,
                cluster: src,
                kind,
            }
        })
        .collect()
}

/// Runs every probe with `ops` operations each and returns nanoseconds per
/// operation by per-layer metric name. `core.sparse_ns_per_lookup` is
/// present only for a sparse geometry.
pub fn run(cfg: &MachineConfig, seed: u64, ops: usize) -> BTreeMap<&'static str, f64> {
    let mut rng = SimRng::new(seed);
    let mut out = BTreeMap::new();
    out.insert("sim.wheel_ns_per_event", wheel(ops, &mut rng));
    out.insert("core.entry_ns_per_op", entry(ops, cfg, &mut rng));
    out.insert("core.store_ns_per_access", store(ops, cfg, &mut rng));
    if let Some(ns) = sparse(ops, cfg, &mut rng) {
        out.insert("core.sparse_ns_per_lookup", ns);
    }
    out.insert("mem.cache_ns_per_access", cache(ops, cfg, &mut rng));
    out.insert("noc.send_ns_per_msg", send(ops, cfg, &mut rng));
    out.insert("protocol.arena_ns_per_msg", arena(ops, cfg, &mut rng));
    // Rendering a line costs a few hundred nanoseconds, ten times the
    // other probes' operations: a tenth of the operations times as long.
    let evs = events(ops / 10, cfg, &mut rng);
    out.insert(
        "trace.event_line_ns_per_event",
        ns_per_op(evs.len(), || {
            evs.iter().map(|ev| event_line(ev).len() as u64).sum()
        }),
    );
    out.insert(
        "trace.patterns_observe_ns_per_event",
        ns_per_op(evs.len(), || {
            let mut table = PatternTable::new();
            for ev in &evs {
                table.observe_event(&ev.to_json());
            }
            table.events()
        }),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use scd_core::{Replacement, Scheme};

    #[test]
    fn every_probe_reports_a_positive_cost_and_sparse_only_when_sparse() {
        let dense = MachineConfig::paper_32().with_scheme(Scheme::dir_cv(4, 4));
        let got = run(&dense, 7, 20_000);
        assert!(!got.contains_key("core.sparse_ns_per_lookup"));
        assert_eq!(got.len(), 8);
        assert!(
            got.values().all(|&ns| ns > 0.0 && ns.is_finite()),
            "{got:?}"
        );

        let sparse = dense.with_sparse(256, 4, Replacement::Random);
        let got = run(&sparse, 7, 20_000);
        assert!(got["core.sparse_ns_per_lookup"] > 0.0);
        assert_eq!(got.len(), 9);
    }
}
