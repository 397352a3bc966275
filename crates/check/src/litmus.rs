//! The litmus corpus: tiny adversarial workloads, each designed to drive
//! the protocol through one hazardous region, instantiated across every
//! directory scheme × organization combination.
//!
//! Every test is small enough for exhaustive interleaving exploration:
//! 2–3 single-processor clusters touching a handful of blocks. Addresses
//! are chosen against the `MachineConfig::tiny` geometry (16-byte blocks,
//! 4-block direct-mapped L1, 16-block 2-way L2 — so blocks congruent
//! mod 4 collide in L1 and mod 8 in L2; homes interleave block mod
//! clusters).

use scd_core::{Organization, Replacement, Scheme};
use scd_machine::machine::explore::{FaultEdges, Mutation};
use scd_machine::{Machine, MachineConfig, ProtocolKind};
use scd_tango::{Op, Program, Script};
use scd_trace::TraceConfig;

/// One litmus test: named programs plus the fault edges it wants explored.
#[derive(Clone, Debug)]
pub struct Litmus {
    /// Corpus-unique name (CLI `--litmus` selector).
    pub name: &'static str,
    /// One-line description of the hazard it probes.
    pub summary: &'static str,
    /// Cluster count (one processor each).
    pub clusters: usize,
    /// Per-processor op streams (shared with every machine built from
    /// them, never copied).
    pub programs: Vec<Program>,
    /// Fault edges to enumerate while exploring this test.
    pub faults: FaultEdges,
    /// Maximum injected faults along any one explored path.
    pub fault_budget: u32,
}

/// One machine configuration a litmus test is instantiated against: a
/// coherence protocol, and (for the directory-based DASH backend) a
/// directory scheme × organization pair.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Display label, e.g. `dense/complete` or `tardis`.
    pub label: String,
    /// Coherence protocol backend.
    pub protocol: ProtocolKind,
    /// Directory entry format (ignored by the directoryless backends).
    pub scheme: Scheme,
    /// Directory organization (ignored by the directoryless backends).
    pub organization: Organization,
}

/// Byte address of block `b` under the 16-byte-block tiny geometry.
fn a(b: u64) -> u64 {
    b * 16
}

/// The full litmus corpus.
///
/// Two structural rules make these effective:
///
/// * **Neutral homes.** A copy held *by* a block's home cluster is
///   bus-tracked, not directory-tracked, so writes that should exercise
///   the directory fan-out use blocks homed away from the sharers.
/// * **Staged timing.** Latencies are deterministic; the explorer's
///   nondeterminism is same-cycle ordering plus fault edges. `Compute`
///   paddings place the hazardous operations in each other's windows
///   (a write landing while sharers hold copies, an invalidation landing
///   around an eviction) instead of trivially before or after them.
pub fn corpus() -> Vec<Litmus> {
    use Op::{Compute, Read, Write};
    vec![
        Litmus {
            name: "store-buffering",
            summary: "two clusters write each other's block then read back (SB)",
            clusters: 2,
            // x = block 0 (home 0), y = block 1 (home 1). The delay edge
            // lets either write's request slip past the other cluster's
            // read, covering the orders fixed latencies would pin down.
            programs: vec![
                vec![Write(a(0)), Read(a(1))].into(),
                vec![Write(a(1)), Read(a(0))].into(),
            ],
            faults: FaultEdges {
                nack: false,
                delay: Some(7),
                dup: None,
            },
            fault_budget: 1,
        },
        Litmus {
            name: "message-passing",
            summary: "writer publishes data then flag; reader polls flag then data (MP)",
            clusters: 3,
            // data = block 2, flag = block 5 — both homed at otherwise-idle
            // cluster 2, so every copy the writer must invalidate is
            // directory-tracked. The reader's first poll caches the stale
            // flag before the writer's fan-out reaches it.
            programs: vec![
                vec![Write(a(2)), Write(a(5))].into(),
                vec![Read(a(5)), Read(a(2)), Read(a(5))].into(),
                vec![].into(),
            ],
            faults: FaultEdges::none(),
            fault_budget: 0,
        },
        Litmus {
            name: "inval-replacement-race",
            summary: "invalidation crosses a silent conflict-miss eviction of the same line",
            clusters: 2,
            // Blocks 0, 8, 16 collide in L1 (mod 4) and L2 (mod 8), all
            // homed at cluster 0. Cluster 1 fills block 0 (remote sharer)
            // then silently evicts it by touching the conflicting blocks;
            // cluster 0's staged writes land in that window, so the
            // invalidation can cross the eviction in flight.
            programs: vec![
                vec![Compute(90), Write(a(0)), Write(a(0))].into(),
                vec![Read(a(0)), Read(a(8)), Read(a(16))].into(),
            ],
            faults: FaultEdges {
                nack: false,
                delay: Some(11),
                dup: None,
            },
            fault_budget: 1,
        },
        Litmus {
            name: "sparse-eviction-during-fanout",
            summary: "sparse directory entry evicted while its block is mid-write-fanout",
            clusters: 3,
            // Blocks 0, 3, 6 share home cluster 0 (mod 3) and, under the
            // sparse scenarios, compete for the same tiny directory set.
            // Cluster 2 becomes a remote sharer of block 0; cluster 1's
            // staged write fans out an invalidation right as cluster 0's
            // reads of blocks 3 and 6 displace block 0's directory entry.
            programs: vec![
                vec![Compute(80), Read(a(3)), Read(a(6))].into(),
                vec![Compute(60), Write(a(0))].into(),
                vec![Read(a(0))].into(),
            ],
            faults: FaultEdges::none(),
            fault_budget: 0,
        },
        Litmus {
            name: "nack-retry-livelock",
            summary: "two writers race on one block under adversarial NACK placement",
            clusters: 2,
            // Block 1 is homed at cluster 1, so cluster 0's writes go
            // remote; NACK fault edges force backoff/retry at the worst
            // moments. A livelock shows up as an unexpectedly unbounded
            // path / deadlocked leaf.
            programs: vec![
                vec![Write(a(1)), Read(a(1))].into(),
                vec![Write(a(1))].into(),
            ],
            faults: FaultEdges {
                nack: true,
                delay: None,
                dup: None,
            },
            fault_budget: 2,
        },
        Litmus {
            name: "broadcast-overflow",
            summary: "limited-pointer entry overflows to broadcast/coarse mode mid-race",
            clusters: 3,
            // Block 1 is homed at cluster 1. Clusters 0 and 2 read it
            // first (two remote sharers overflow any 1-pointer entry);
            // the home's staged write then fans out through whatever
            // overflowed representation resulted — it must reach every
            // sharer. The duplicate edge re-sends a read request so
            // at-most-once directory recording is exercised too.
            programs: vec![
                vec![Read(a(1))].into(),
                vec![Compute(150), Write(a(1))].into(),
                vec![Read(a(1)), Read(a(1))].into(),
            ],
            faults: FaultEdges {
                nack: false,
                delay: None,
                dup: Some(9),
            },
            fault_budget: 1,
        },
        Litmus {
            name: "lease-expiry-stale-read",
            summary: "reader's Tardis lease must expire before a second write's version",
            clusters: 2,
            // Block 1 is homed at cluster 1; cluster 1 reads its own
            // block so the lease and the timestamp line live on the same
            // node. The second write must jump `wts` past the granted
            // read horizon — a write that merely increments it
            // (`tardis-skip-wts-bump`) leaves the reader's lease live
            // over the superseded version, and the barrier-synced `pts`
            // then lets the stale copy satisfy the final read.
            programs: vec![
                vec![
                    Write(a(1)),
                    Op::Barrier(0),
                    Compute(5),
                    Write(a(1)),
                    Op::Barrier(1),
                ].into(),
                vec![Op::Barrier(0), Read(a(1)), Op::Barrier(1), Read(a(1))].into(),
            ],
            faults: FaultEdges::none(),
            fault_budget: 0,
        },
        Litmus {
            name: "renew-write-race",
            summary: "lease renewals race a writer bumping the block's timestamps",
            clusters: 2,
            // Cluster 1 leases blocks 0 and 1 early (low `pts`), then
            // cluster 0's barrier-separated re-writes of block 1 ratchet
            // `wts` — and, via the barrier-release piggyback, cluster
            // 1's `pts` — past the early lease horizons. The phase-3
            // re-read of block 1 renews against a bumped `wts` and must
            // decline into a refetch; the final re-read of block 0
            // renews against an unchanged `wts` and succeeds — racing
            // cluster 0's (compute-delayed) closing write of the same
            // block, which the delay edge can push to either side.
            programs: vec![
                vec![
                    Write(a(0)),
                    Op::Barrier(0),
                    Write(a(1)),
                    Op::Barrier(1),
                    Write(a(1)),
                    Op::Barrier(2),
                    Write(a(1)),
                    Op::Barrier(3),
                    Compute(30),
                    Write(a(0)),
                ].into(),
                vec![
                    Op::Barrier(0),
                    Read(a(0)),
                    Read(a(1)),
                    Op::Barrier(1),
                    Read(a(1)),
                    Op::Barrier(2),
                    Read(a(1)),
                    Op::Barrier(3),
                    Read(a(0)),
                    Read(a(1)),
                ].into(),
            ],
            faults: FaultEdges {
                nack: false,
                delay: Some(7),
                dup: None,
            },
            fault_budget: 1,
        },
        Litmus {
            name: "write-after-shared-llc-hit",
            summary: "remote DLS write must invalidate the home's own cached copy",
            clusters: 2,
            // Block 0 is homed at cluster 0, which caches it early (a
            // home-local hit under DLS). Cluster 1's remote write lands
            // at the LLC slice mid-window; a write that skips the home
            // invalidation (`dls-skip-writeback`) leaves cluster 0
            // re-reading its stale copy while the slice has moved on.
            programs: vec![
                vec![Read(a(0)), Compute(50), Read(a(0))].into(),
                vec![Compute(20), Read(a(0)), Write(a(0))].into(),
            ],
            faults: FaultEdges {
                nack: false,
                delay: None,
                dup: Some(9),
            },
            fault_budget: 1,
        },
    ]
}

/// Every scheme × organization combination the corpus is checked under:
/// dense (full-vector), 1-pointer broadcast / no-broadcast / superset,
/// coarse-vector — each over a complete and a deliberately tiny sparse
/// directory — plus the overflow organization under the `Dir1NB` its
/// entries are.
pub fn scenarios() -> Vec<Scenario> {
    let schemes: [(&str, Scheme); 5] = [
        ("dense", Scheme::FullVector),
        ("dir1b", Scheme::dir_b(1)),
        ("dir1nb", Scheme::dir_nb(1)),
        ("dir1x", Scheme::dir_x(1)),
        ("dir1cv2", Scheme::dir_cv(1, 2)),
    ];
    let orgs: [(&str, Organization); 2] = [
        ("complete", Organization::Complete),
        (
            "sparse",
            Organization::Sparse {
                entries: 4,
                ways: 2,
                policy: Replacement::Lru,
            },
        ),
    ];
    let mut out = Vec::new();
    for (sn, scheme) in schemes {
        for (on, org) in &orgs {
            out.push(Scenario {
                label: format!("{sn}/{on}"),
                protocol: ProtocolKind::Dash,
                scheme,
                organization: org.clone(),
            });
        }
    }
    out.push(Scenario {
        label: "dir1nb/overflow".to_string(),
        protocol: ProtocolKind::Dash,
        scheme: Scheme::dir_nb(1),
        organization: Organization::Overflow {
            i: 1,
            wide_entries: 2,
            wide_ways: 1,
            policy: Replacement::Lru,
        },
    });
    // The directoryless backends have no scheme/organization axis: one
    // scenario each, named by the protocol.
    for protocol in [ProtocolKind::Tardis, ProtocolKind::Dls] {
        out.push(Scenario {
            label: protocol.name().to_string(),
            protocol,
            scheme: Scheme::FullVector,
            organization: Organization::Complete,
        });
    }
    out
}

/// Looks up corpus entries by name (`all` selects the whole corpus).
pub fn select(names: &str) -> Result<Vec<Litmus>, String> {
    let all = corpus();
    if names == "all" {
        return Ok(all);
    }
    let mut out = Vec::new();
    for want in names.split(',') {
        let want = want.trim();
        match all.iter().find(|l| l.name == want) {
            Some(l) => out.push(l.clone()),
            None => {
                return Err(format!(
                    "unknown litmus `{want}` (known: {})",
                    all.iter()
                        .map(|l| l.name)
                        .collect::<Vec<_>>()
                        .join(", ")
                ))
            }
        }
    }
    Ok(out)
}

impl Litmus {
    /// The machine configuration for this litmus under `scenario`.
    pub fn config(&self, scenario: &Scenario, trace: bool) -> MachineConfig {
        let mut cfg = MachineConfig::tiny(self.clusters).with_protocol(scenario.protocol);
        cfg.scheme = scenario.scheme;
        cfg.organization = scenario.organization.clone();
        if trace {
            cfg = cfg.with_trace(TraceConfig::full(16 * 1024));
        }
        cfg
    }

    /// One fresh [`Script`] per processor of this litmus.
    pub fn scripts(&self) -> Vec<Script> {
        self.programs.iter().cloned().map(Script::from).collect()
    }

    /// Builds a machine running this litmus under `scenario`, optionally
    /// mutated and/or trace-enabled (for counterexample emission).
    pub fn build(
        &self,
        scenario: &Scenario,
        mutation: Option<Mutation>,
        trace: bool,
    ) -> Machine {
        let mut m = Machine::new(self.config(scenario, trace), self.scripts());
        if let Some(mu) = mutation {
            m.arm_mutation(mu);
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_names_are_unique_and_selectable() {
        let all = corpus();
        for l in &all {
            let got = select(l.name).unwrap();
            assert_eq!(got.len(), 1);
            assert_eq!(got[0].name, l.name);
            assert_eq!(l.programs.len(), l.clusters, "{}: one program per cluster", l.name);
        }
        assert_eq!(select("all").unwrap().len(), all.len());
        assert!(select("no-such-test").is_err());
    }

    #[test]
    fn scenario_matrix_covers_schemes_orgs_and_protocols() {
        let s = scenarios();
        assert_eq!(s.len(), 13);
        assert!(s.iter().any(|x| x.label == "dense/complete"));
        assert!(s.iter().any(|x| x.label == "dir1cv2/sparse"));
        assert!(s.iter().any(|x| x.label.ends_with("/overflow")));
        for p in ProtocolKind::ALL {
            assert!(
                s.iter().any(|x| x.protocol == p),
                "no scenario exercises {p:?}"
            );
        }
    }

    #[test]
    fn litmus_machines_run_clean_on_the_default_path() {
        // Every (litmus, scenario) pair — all three protocols included —
        // must at minimum survive the deterministic (non-exploring) run
        // with invariants on.
        for l in corpus() {
            for sc in scenarios() {
                let mut m = l.build(&sc, None, false);
                if let Err(e) = m.try_run() {
                    panic!("{} under {}: {e}", l.name, sc.label);
                }
            }
        }
    }

    #[test]
    fn renew_litmus_actually_renews() {
        // The renewal-race litmus is only worth its name if the default
        // deterministic path drives at least one lease renewal.
        let sc = scenarios()
            .into_iter()
            .find(|s| s.protocol == ProtocolKind::Tardis)
            .unwrap();
        let l = select("renew-write-race").unwrap().remove(0);
        let mut m = l.build(&sc, None, false);
        let stats = m.try_run().unwrap();
        let t = stats.tardis.expect("tardis counters");
        assert!(t.renewals > 0, "no renewal exercised: {t:?}");
    }

    #[test]
    fn seeded_bugs_are_caught_at_quiescence() {
        // Each backend's seeded mutation must trip its protocol checker
        // even on the plain deterministic path of its target litmus.
        let cases = [
            (
                "lease-expiry-stale-read",
                ProtocolKind::Tardis,
                Mutation::TardisSkipWtsBump,
            ),
            (
                "write-after-shared-llc-hit",
                ProtocolKind::Dls,
                Mutation::DlsSkipWriteback,
            ),
        ];
        for (name, proto, mutation) in cases {
            let sc = scenarios()
                .into_iter()
                .find(|s| s.protocol == proto)
                .unwrap();
            let l = select(name).unwrap().remove(0);
            let mut m = l.build(&sc, Some(mutation), false);
            assert!(
                m.try_run().is_err(),
                "{name} under {proto:?} with {mutation:?}: violation not caught"
            );
        }
    }
}
