//! Fault injection in one place: which messages each `FaultPlan` mode may
//! touch, the per-channel draws, the FIFO clamp, and the tolerance mode the
//! protocol's recovery paths ask for (DESIGN.md §8). The engine calls
//! `on_send` for every inter-cluster send and `nacks` for every
//! inter-cluster delivery; an inert plan costs each one branch.

use std::hash::Hasher;

use scd_noc::FaultPlan;
use scd_protocol::Msg;
use scd_sim::{Cycle, SimRng};
use scd_stats::MessageClass;

use super::explore::hash_walk;
use crate::config::{MachineConfig, TIMING};
use crate::stats::FaultCounters;

/// One directed channel. Send-side draws (reorder, delay, dup) and
/// deliver-side draws (NACK) have separate streams, each consumed in
/// channel-local order, so fault placement is a function of the channel's
/// own traffic, not of how unrelated channels interleave.
#[derive(Clone)]
struct Channel {
    send: SimRng,
    nack: SimRng,
    /// The latest request-class delivery, which a later one may not precede.
    clamp: Cycle,
}

/// The resolved plan, its counters, and one [`Channel`] per `(src, dst)`.
pub(crate) struct FaultInjector {
    plan: FaultPlan,
    /// The plan is active, or [`FaultInjector::tolerate`] armed the
    /// recovery paths: what both hooks and the protocol gate on.
    active: bool,
    seed: u64,
    clusters: usize,
    /// A duplicate trails its original by `1..=dup_gap` cycles.
    dup_gap: Cycle,
    /// Indexed `src * clusters + dst`; built on first touch, which only a
    /// fault plan or an explorer's fault edges make.
    channels: Vec<Channel>,
    counters: FaultCounters,
}

scd_core::clone_fields!(FaultInjector { plan, active, seed, clusters, dup_gap, channels, counters });

impl FaultInjector {
    pub(crate) fn new(cfg: &MachineConfig) -> Self {
        let plan = cfg.fault_plan.unwrap_or_default();
        FaultInjector {
            plan,
            active: plan.is_active(),
            seed: cfg.seed,
            clusters: cfg.clusters,
            dup_gap: TIMING.bus_memory.max(1),
            channels: Vec::new(),
            counters: FaultCounters::default(),
        }
    }

    /// Arms the recovery paths without injecting anything.
    pub(crate) fn tolerate(&mut self) {
        self.active = true;
    }

    /// Whether the RAC drops stray replies and the home NACKs, rather
    /// than parks, a request from the recorded owner.
    pub(crate) fn tolerant(&self) -> bool {
        self.active
    }

    pub(crate) fn counters(&self) -> FaultCounters {
        self.counters
    }

    /// Where the recovery paths and the explorer's fault edges count what
    /// they did (the hooks count their own draws).
    pub(crate) fn count(&mut self) -> &mut FaultCounters {
        &mut self.counters
    }

    fn channel(&mut self, src: usize, dst: usize) -> &mut Channel {
        let (seed, n) = (self.seed, self.clusters);
        if self.channels.is_empty() {
            let rng = |i: usize, side| channel_rng(seed, i / n, i % n, side);
            self.channels = (0..n * n).map(|i| Channel { send: rng(i, 1), nack: rng(i, 2), clamp: 0 }).collect();
        }
        &mut self.channels[src * n + dst]
    }

    /// The send hook for a message due at `nominal`: its delivery cycle,
    /// and a duplicate's, if one is to follow it.
    #[inline]
    pub(crate) fn on_send(&mut self, nominal: Cycle, msg: &Msg) -> (Cycle, Option<Cycle>) {
        if self.active {
            self.perturb(nominal, msg)
        } else {
            (nominal, None)
        }
    }

    /// Replies, invalidations and acknowledgements are never perturbed:
    /// delaying one past a newer ownership epoch would corrupt state the
    /// protocol cannot recover, whereas the home's serializer, SelfOwned
    /// handling and NAKs absorb a perturbed request.
    fn perturb(&mut self, nominal: Cycle, msg: &Msg) -> (Cycle, Option<Cycle>) {
        let (plan, dup_gap, mut counters) = (self.plan, self.dup_gap, self.counters);
        let request = msg.kind.class() == MessageClass::Request;
        let coherence = msg.kind.coherence_request();
        let ch = self.channel(msg.src, msg.dst);
        let mut at = nominal;
        let reorder = coherence.is_some()
            && plan.reorder_window > 0
            && plan.reorder_prob > 0.0
            && ch.send.chance(plan.reorder_prob);
        if reorder {
            // Jitter *outside* the clamp: the request may land behind
            // traffic sent after it, or — when a spike holds the clamp
            // high — ahead of traffic sent before it, such as its own
            // cluster's writeback.
            at += ch.send.range(1, plan.reorder_window + 1);
            counters.reorders += 1;
        } else if request && plan.delay_cycles > 0 && plan.delay_prob > 0.0 && ch.send.chance(plan.delay_prob) {
            at += ch.send.range(1, plan.delay_cycles + 1);
            counters.delay_spikes += 1;
        }
        if request && !reorder {
            // A spiked request may not be overtaken on its FIFO channel.
            at = at.max(ch.clamp);
            ch.clamp = at;
        }
        // At-least-once delivery, reads only: re-servicing a read is
        // idempotent (sharer registration is superset-safe and the stray
        // reply is dropped at the RAC), re-servicing a write would record a
        // second ownership grant.
        let dup = matches!(coherence, Some((_, false))) && plan.dup_prob > 0.0 && ch.send.chance(plan.dup_prob);
        let dup = dup.then(|| at + ch.send.range(1, dup_gap + 1));
        counters.duplicates += dup.is_some() as u64;
        self.counters = counters;
        (at, dup)
    }

    /// The deliver-side hook: `Some((block, was_write))` when the home
    /// refuses this coherence request with a NACK. Decided at delivery,
    /// not in the home's handler, so a replayed parked request, which
    /// already holds a queue slot, is never refused.
    #[inline]
    pub(crate) fn nacks(&mut self, msg: &Msg) -> Option<(u64, bool)> {
        let p = self.plan.nack_prob;
        if !(self.active && p > 0.0) || msg.src == msg.dst {
            return None;
        }
        let request = msg.kind.coherence_request()?;
        self.channel(msg.src, msg.dst).nack.chance(p).then_some(request)
    }

    /// Hashes the clamps still in the future, relative to `now`: they
    /// constrain deliveries yet to be sent.
    pub(crate) fn fingerprint(&self, h: &mut impl Hasher, now: Cycle) {
        let future = self.channels.iter().enumerate().filter(|(_, c)| c.clamp > now);
        hash_walk(h, future.map(|(i, c)| (i as u64, c.clamp - now)));
    }
}

/// Channel `(src, dst)`'s stream, a pure function of the seed and the
/// channel; `side` is 1 for send-side draws, 2 for NACK draws.
fn channel_rng(seed: u64, src: usize, dst: usize, side: u64) -> SimRng {
    let mut x = seed ^ 0xFA17_5EED_0000_0000;
    for v in [src as u64, dst as u64, side] {
        x = (x ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        x ^= x >> 29;
    }
    SimRng::new(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use scd_protocol::MsgKind;

    /// Delivery cycles of `n` requests (reads, writes, writebacks) sent
    /// one cycle apart on channel (0, 1), each due 10 cycles after it
    /// leaves.
    fn deliveries(plan: FaultPlan, n: u64) -> Vec<Cycle> {
        let cfg = MachineConfig { fault_plan: Some(plan), ..MachineConfig::tiny(2) };
        let mut f = FaultInjector::new(&cfg);
        let kinds = [MsgKind::ReadReq { block: 4 }, MsgKind::WriteReq { block: 5 }, MsgKind::Writeback { block: 6 }];
        (0..n).map(|t| f.on_send(t + 10, &Msg { src: 0, dst: 1, kind: kinds[t as usize % 3] }).0).collect()
    }

    /// The clamp holds each channel FIFO under latency spikes; only
    /// `reorder`, which the clamp exempts by design, inverts a pair.
    #[test]
    fn the_delay_clamp_keeps_a_channel_fifo_and_reorder_escapes_it() {
        let delayed = deliveries(FaultPlan::delay(1.0, 40), 200);
        assert!(delayed.windows(2).all(|w| w[0] <= w[1]), "{delayed:?}");
        assert!(delayed.iter().enumerate().any(|(t, &at)| at > t as u64 + 10), "no spike");
        let reordered = deliveries(FaultPlan::reorder(1.0, 40), 200);
        assert!(reordered.windows(2).any(|w| w[0] > w[1]), "{reordered:?}");
    }

    #[test]
    fn an_inert_plan_touches_nothing() {
        let mut f = FaultInjector::new(&MachineConfig::tiny(2));
        let msg = Msg { src: 0, dst: 1, kind: MsgKind::ReadReq { block: 4 } };
        assert_eq!(f.on_send(7, &msg), (7, None));
        assert_eq!(f.nacks(&msg), None);
        assert!(f.channels.is_empty() && !f.tolerant());
    }
}
