//! Cross-validation regression: the Figure-2 Monte-Carlo model and the
//! full machine must agree on invalidations-per-write for controlled
//! sharer counts (see `repro fig2_machine` for the full sweep).

use scd::apps::{synth, SharingPattern, SynthParams};
use scd::core::analysis::average_invalidations;
use scd::core::Scheme;
use scd::machine::{Machine, MachineConfig};

fn machine_mean(scheme: Scheme, sharers: usize) -> f64 {
    let app = synth(
        &SynthParams {
            pattern: SharingPattern::WideRead { sharers },
            blocks: 96,
            rounds: 1,
        },
        16,
        0xF162 + sharers as u64,
    );
    let mut cfg = MachineConfig::paper_32().with_scheme(scheme);
    cfg.clusters = 16;
    cfg.check_invariants = true;
    let stats = Machine::new(cfg, app.scripts()).run();
    assert_eq!(stats.invalidations.events(), 96, "one event per write");
    stats.invalidations.mean()
}

#[test]
fn full_vector_matches_model_exactly() {
    for s in [1usize, 3, 7, 12] {
        let model = average_invalidations(Scheme::FullVector, 16, s, 2_000, 1);
        let machine = machine_mean(Scheme::FullVector, s);
        assert!(
            (model - machine).abs() < 1e-9,
            "s={s}: model {model} machine {machine}"
        );
    }
}

#[test]
fn broadcast_matches_model_exactly() {
    for s in [2usize, 4, 8] {
        let model = average_invalidations(Scheme::dir_b(3), 16, s, 2_000, 1);
        let machine = machine_mean(Scheme::dir_b(3), s);
        assert!(
            (model - machine).abs() < 1e-9,
            "s={s}: model {model} machine {machine}"
        );
    }
}

#[test]
fn coarse_vector_matches_model_within_sampling_noise() {
    for s in [4usize, 8, 12] {
        let model = average_invalidations(Scheme::dir_cv(3, 2), 16, s, 50_000, 1);
        let machine = machine_mean(Scheme::dir_cv(3, 2), s);
        assert!(
            (model - machine).abs() < 0.5,
            "s={s}: model {model} machine {machine}"
        );
    }
}

#[test]
fn migratory_pattern_causes_pure_ownership_transfers() {
    // MP3D's pattern in isolation: reads forward + writes transfer, but no
    // invalidation fan-out.
    let app = synth(
        &SynthParams {
            pattern: SharingPattern::Migratory,
            blocks: 64,
            rounds: 4,
        },
        16,
        5,
    );
    let mut cfg = MachineConfig::paper_32();
    cfg.clusters = 16;
    cfg.check_invariants = true;
    let stats = Machine::new(cfg, app.scripts()).run();
    // Migratory sharing's signature: every write invalidates at most the
    // single previous holder (the distribution has no tail), and reads of
    // dirty data travel by ownership forwarding.
    assert!(
        stats.invalidations.max_value() <= 1,
        "migratory events touch at most one previous holder"
    );
    assert!(
        stats.invalidations.mean() <= 1.0,
        "got {}",
        stats.invalidations.mean()
    );
    assert!(stats.protocol.forwards > 0, "migration forwards ownership");
}
