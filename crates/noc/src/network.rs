//! Latency model and per-network accounting.

use crate::mesh::Mesh;

/// How message latency is computed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LatencyModel {
    /// Every remote message takes the same time (useful for calibration and
    /// for isolating topology effects in ablation benches).
    Uniform {
        /// Cycles per message.
        latency: u64,
    },
    /// Fixed overhead (send/receive, network interface) plus a per-hop cost
    /// — the first-order model of a wormhole-routed mesh without contention.
    Mesh {
        /// Cycles of fixed overhead per message.
        fixed: u64,
        /// Cycles per mesh hop.
        per_hop: u64,
    },
}

impl LatencyModel {
    /// Latency of one message from `src` to `dst` on `mesh`.
    pub fn latency(&self, mesh: &Mesh, src: usize, dst: usize) -> u64 {
        if src == dst {
            0
        } else {
            self.remote_latency(mesh.distance(src, dst))
        }
    }

    /// Latency of a message between two different nodes `hops` links apart.
    fn remote_latency(&self, hops: usize) -> u64 {
        match *self {
            LatencyModel::Uniform { latency } => latency,
            LatencyModel::Mesh { fixed, per_hop } => fixed + per_hop * hops as u64,
        }
    }
}

/// Message and hop accounting.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct NetworkStats {
    /// Messages sent (excluding src == dst local deliveries).
    pub messages: u64,
    /// Total hops traversed.
    pub hops: u64,
    /// Histogram of hop counts (index = hops).
    pub hop_histogram: Vec<u64>,
    /// Cycles spent queued behind busy links (contention model only).
    pub contention_cycles: u64,
}

impl Clone for NetworkStats {
    fn clone(&self) -> Self {
        NetworkStats {
            hop_histogram: self.hop_histogram.clone(),
            ..*self
        }
    }

    fn clone_from(&mut self, source: &Self) {
        let NetworkStats {
            messages,
            hops,
            hop_histogram,
            contention_cycles,
        } = self;
        *messages = source.messages;
        *hops = source.hops;
        hop_histogram.clone_from(&source.hop_histogram);
        *contention_cycles = source.contention_cycles;
    }
}

impl NetworkStats {
    /// Mean hops per message.
    pub fn mean_hops(&self) -> f64 {
        if self.messages == 0 {
            0.0
        } else {
            self.hops as f64 / self.messages as f64
        }
    }
}

/// Per-directed-link traffic counters, collected only when the
/// attribution profiler enables them ([`Network::enable_link_counters`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LinkCounters {
    /// Messages that crossed the link.
    pub messages: u64,
    /// Flits that crossed the link (each flit occupies the channel for
    /// one flit-time; flits / elapsed cycles is the channel occupancy).
    pub flits: u64,
}

/// The interconnect of one machine: topology + latency model + statistics.
#[derive(Debug)]
pub struct Network {
    mesh: Mesh,
    model: LatencyModel,
    stats: NetworkStats,
    /// Cycles each message holds a link, when contention is modeled.
    link_occupancy: Option<u64>,
    /// Next-free time per directed link, one slot per [`Mesh::link_index`]
    /// (empty unless contention is modeled).
    link_free: Vec<u64>,
    /// Traffic counters per `(src, dst)` pair, at `src * nodes + dst`: a
    /// send charges its pair once, and [`Network::link_traffic`] spreads
    /// each pair's total over the links of its (fixed) route. `None` (the
    /// default) records nothing — the inert-by-default contract of every
    /// profiling hook.
    pair_traffic: Option<Vec<LinkCounters>>,
}

impl Clone for Network {
    fn clone(&self) -> Self {
        Network {
            mesh: self.mesh,
            model: self.model,
            stats: self.stats.clone(),
            link_occupancy: self.link_occupancy,
            link_free: self.link_free.clone(),
            pair_traffic: self.pair_traffic.clone(),
        }
    }

    /// Refills the statistics and link tables in place.
    fn clone_from(&mut self, source: &Self) {
        let Network {
            mesh,
            model,
            stats,
            link_occupancy,
            link_free,
            pair_traffic,
        } = self;
        *mesh = source.mesh;
        *model = source.model;
        stats.clone_from(&source.stats);
        *link_occupancy = source.link_occupancy;
        link_free.clone_from(&source.link_free);
        pair_traffic.clone_from(&source.pair_traffic);
    }
}

impl Network {
    /// Creates a network over `clusters` nodes arranged as a near-square
    /// mesh.
    pub fn new(clusters: usize, model: LatencyModel) -> Self {
        Network {
            mesh: Mesh::near_square(clusters),
            model,
            stats: NetworkStats::default(),
            link_occupancy: None,
            link_free: Vec::new(),
            pair_traffic: None,
        }
    }

    /// Enables link contention: each message holds every link along its
    /// dimension-ordered route for `occupancy` cycles, and queues behind
    /// earlier traffic (store-and-forward approximation; only meaningful
    /// with the [`LatencyModel::Mesh`] model).
    pub fn with_contention(mut self, occupancy: u64) -> Self {
        self.link_occupancy = Some(occupancy);
        self.link_free = vec![0; self.mesh.link_slots()];
        self
    }

    /// The topology.
    pub fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    /// Records a message send at time `now` and returns its delivery
    /// latency in cycles.
    ///
    /// `src == dst` is a local delivery: zero latency, not counted as
    /// network traffic (intra-cluster transfers ride the cluster bus).
    /// With contention enabled, the message additionally queues behind
    /// earlier traffic on each link of its route.
    pub fn send(&mut self, now: u64, src: usize, dst: usize) -> u64 {
        if src == dst {
            return 0;
        }
        let hops = self.mesh.distance(src, dst);
        self.stats.messages += 1;
        self.stats.hops += hops as u64;
        if self.stats.hop_histogram.len() <= hops {
            self.stats.hop_histogram.resize(hops + 1, 0);
        }
        self.stats.hop_histogram[hops] += 1;
        let base = self.model.remote_latency(hops);
        let Some(occ) = self.link_occupancy else {
            return base;
        };
        // Walk the route, queueing behind each link's previous occupant.
        let per_hop = match self.model {
            LatencyModel::Mesh { per_hop, .. } => per_hop,
            LatencyModel::Uniform { .. } => 1,
        };
        let mut t = now;
        let mut prev = src;
        let mut waited = 0;
        for next in self.mesh.route(src, dst) {
            let free = &mut self.link_free[self.mesh.link_index(prev, next)];
            if *free > t {
                waited += *free - t;
                t = *free;
            }
            *free = t + occ;
            t += per_hop.max(1);
            prev = next;
        }
        self.stats.contention_cycles += waited;
        base + waited
    }

    /// Mesh hops between two clusters (0 for a local delivery), without
    /// recording anything.
    pub fn hops(&self, src: usize, dst: usize) -> usize {
        if src == dst {
            0
        } else {
            self.mesh.distance(src, dst)
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &NetworkStats {
        &self.stats
    }

    /// Turns on per-link traffic counters. Off (and free) by default;
    /// the attribution profiler enables them at machine construction.
    pub fn enable_link_counters(&mut self) {
        let nodes = self.mesh.nodes();
        self.pair_traffic = Some(vec![LinkCounters::default(); nodes * nodes]);
    }

    /// Charges one message of `flits` flits to every directed link on the
    /// dimension-ordered route from `src` to `dst`. No-op unless counters
    /// are enabled or for local deliveries — and purely observational
    /// either way (never affects latency or ordering).
    pub fn note_link_traffic(&mut self, src: usize, dst: usize, flits: u64) {
        let Some(pairs) = self.pair_traffic.as_mut() else {
            return;
        };
        let c = &mut pairs[src * self.mesh.nodes() + dst];
        c.messages += 1;
        c.flits += flits;
    }

    /// Snapshot of the counters of every link that carried a message,
    /// busiest (most flits) first, ties broken by link id for
    /// determinism. Empty when disabled.
    pub fn link_traffic(&self) -> Vec<((usize, usize), LinkCounters)> {
        let Some(pairs) = &self.pair_traffic else {
            return Vec::new();
        };
        let nodes = self.mesh.nodes();
        let mut links = vec![LinkCounters::default(); self.mesh.link_slots()];
        for (pair, c) in pairs.iter().enumerate().filter(|(_, c)| c.messages > 0) {
            let (src, dst) = (pair / nodes, pair % nodes);
            let mut prev = src;
            for next in self.mesh.route(src, dst) {
                let l = &mut links[self.mesh.link_index(prev, next)];
                l.messages += c.messages;
                l.flits += c.flits;
                prev = next;
            }
        }
        let mut v: Vec<_> = links
            .iter()
            .enumerate()
            .filter(|(_, c)| c.messages > 0)
            .map(|(i, &c)| (self.mesh.link_ends(i), c))
            .collect();
        v.sort_by(|a, b| b.1.flits.cmp(&a.1.flits).then(a.0.cmp(&b.0)));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_model_ignores_distance() {
        let m = LatencyModel::Uniform { latency: 20 };
        let mesh = Mesh::new(4, 4);
        assert_eq!(m.latency(&mesh, 0, 1), 20);
        assert_eq!(m.latency(&mesh, 0, 15), 20);
        assert_eq!(m.latency(&mesh, 3, 3), 0);
    }

    #[test]
    fn mesh_model_scales_with_hops() {
        let m = LatencyModel::Mesh {
            fixed: 10,
            per_hop: 2,
        };
        let mesh = Mesh::new(4, 4);
        assert_eq!(m.latency(&mesh, 0, 1), 12);
        assert_eq!(m.latency(&mesh, 0, 15), 10 + 2 * 6);
        assert_eq!(m.latency(&mesh, 5, 5), 0);
    }

    #[test]
    fn network_accounts_messages_and_hops() {
        let mut n = Network::new(
            16,
            LatencyModel::Mesh {
                fixed: 10,
                per_hop: 2,
            },
        );
        assert_eq!(n.send(0, 0, 0), 0, "local delivery is free");
        assert_eq!(n.stats().messages, 0);
        let lat = n.send(0, 0, 15);
        assert_eq!(lat, 22);
        n.send(100, 0, 1);
        assert_eq!(n.stats().messages, 2);
        assert_eq!(n.stats().hops, 7);
        assert_eq!(n.stats().hop_histogram[6], 1);
        assert_eq!(n.stats().hop_histogram[1], 1);
        assert!((n.stats().mean_hops() - 3.5).abs() < 1e-12);
    }

    #[test]
    fn hops_accessor_matches_send_accounting() {
        let mut n = Network::new(16, LatencyModel::Uniform { latency: 5 });
        assert_eq!(n.hops(3, 3), 0, "local delivery crosses no links");
        assert_eq!(n.hops(0, 15), 6);
        assert_eq!(n.hops(0, 1), 1);
        n.send(0, 0, 15);
        assert_eq!(n.stats().hops, n.hops(0, 15) as u64);
        assert_eq!(n.stats().messages, 1, "hops() itself records nothing");
    }

    #[test]
    fn link_counters_are_inert_until_enabled() {
        let mut n = Network::new(16, LatencyModel::Uniform { latency: 5 });
        n.note_link_traffic(0, 3, 4);
        assert!(n.link_traffic().is_empty(), "disabled counters record nothing");
        n.enable_link_counters();
        n.note_link_traffic(0, 3, 4);
        n.note_link_traffic(0, 2, 1);
        n.note_link_traffic(5, 5, 9);
        let links = n.link_traffic();
        // Route 0 -> 3 shares links (0,1) and (1,2) with 0 -> 2.
        assert_eq!(links.len(), 3);
        assert_eq!(links[0].0, (0, 1), "busiest link first");
        assert_eq!(links[0].1, LinkCounters { messages: 2, flits: 5 });
        assert_eq!(links[2].1, LinkCounters { messages: 1, flits: 4 });
        assert_eq!(n.stats().messages, 0, "counters never touch send stats");
    }
}
