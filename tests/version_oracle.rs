//! The version oracle end-to-end: every ownership grant creates a fresh
//! data version; no cluster may ever observe a block regressing to an
//! older version than it has already seen. Running the paper's real
//! workloads with the oracle enabled is a machine-checked coherence proof
//! for those executions.

use scd::apps::{locusroute, lu, mp3d, LocusRouteParams, LuParams, Mp3dParams};
use scd::core::{Replacement, Scheme};
use scd::machine::{Machine, MachineConfig};

#[test]
fn oracle_is_live_and_counts_ownership_epochs() {
    let app = mp3d(&Mp3dParams::scaled(0.1), 32, 3);
    let mut cfg = MachineConfig::paper_32();
    cfg.check_invariants = true;
    let stats = Machine::new(cfg, app.scripts()).run();
    assert!(
        stats.versions_assigned > 1_000,
        "MP3D's writes must create many ownership epochs, got {}",
        stats.versions_assigned
    );
}

#[test]
fn paper_workloads_pass_the_oracle_under_every_scheme() {
    let apps = [
        lu(&LuParams { n: 24, update_cost: 2 }, 32, 7),
        mp3d(&Mp3dParams::scaled(0.08), 32, 7),
        locusroute(&LocusRouteParams::scaled(0.15), 32, 7),
    ];
    for app in &apps {
        for scheme in [
            Scheme::FullVector,
            Scheme::dir_cv(3, 2),
            Scheme::dir_b(3),
            Scheme::dir_nb(3),
        ] {
            let mut cfg = MachineConfig::paper_32().with_scheme(scheme);
            cfg.check_invariants = true;
            cfg.max_cycles = 200_000_000;
            // The run panics if any cluster observes a stale version.
            let stats = Machine::new(cfg, app.scripts()).run();
            assert!(stats.cycles > 0, "{} {scheme:?}", app.name);
        }
    }
}

#[test]
fn sparse_and_overflow_organizations_pass_the_oracle() {
    let app = lu(&LuParams { n: 32, update_cost: 2 }, 32, 9);
    let dataset_blocks = (app.shared_bytes / 16) as usize;
    let scaled = MachineConfig::paper_32().with_scaled_caches((dataset_blocks / 4).max(256));

    let mut sparse_cfg = scaled
        .clone()
        .with_sparse((scaled.total_cache_blocks() / 32).max(4), 4, Replacement::Lru);
    sparse_cfg.check_invariants = true;
    let s = Machine::new(sparse_cfg, app.scripts()).run();
    assert!(s.sparse.unwrap().replacements > 0, "replacements exercised");

    let mut of_cfg = MachineConfig::paper_32().with_overflow(2, 8, 4, Replacement::Lru);
    of_cfg.check_invariants = true;
    let o = Machine::new(of_cfg, app.scripts()).run();
    assert!(o.overflow.unwrap().promotions > 0, "promotions exercised");
}

#[test]
fn serial_invalidation_mode_passes_the_oracle() {
    let app = locusroute(&LocusRouteParams::scaled(0.12), 32, 11);
    let mut cfg = MachineConfig::paper_32();
    cfg.serial_invalidations = true;
    cfg.check_invariants = true;
    let stats = Machine::new(cfg, app.scripts()).run();
    assert!(stats.versions_assigned > 0);
}
