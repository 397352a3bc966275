//! Monte-Carlo invalidation analysis (paper Figure 2).
//!
//! "The graph shows the average number of invalidations sent out on a write
//! to a shared block as the number of processors sharing that block is
//! varied. For each invalidation event, the sharers were randomly chosen and
//! the number of invalidations required was recorded."
//!
//! Model (stated precisely so the curves are reproducible):
//!
//! * The machine has `p` clusters. For each event a *home* cluster `h` and a
//!   *writer* cluster `w != h` are drawn uniformly.
//! * The `s` sharers are a uniform random subset of the remaining `p - 2`
//!   clusters, inserted into a fresh directory entry in random order (order
//!   matters for the limited-pointer schemes).
//! * The write then triggers invalidations to the entry's target superset
//!   minus the writer and minus the home cluster (home-cluster copies are
//!   invalidated over the local bus, not the network — this is why the
//!   paper's broadcast count is `p - 2`).
//!
//! The full-vector line is exactly `s`; `Dir_i B` is exactly `s` for
//! `s <= i` and `p - 2` beyond; the coarse-vector and superset schemes are
//! genuinely stochastic.

use scd_sim::SimRng;

use crate::entry::DirEntry;
use crate::node_set::NodeId;
use crate::scheme::Scheme;

/// Average invalidations per write event for a fixed sharer count.
///
/// Runs `events` independent events and averages; deterministic per `seed`.
pub fn average_invalidations(scheme: Scheme, p: usize, s: usize, events: usize, seed: u64) -> f64 {
    assert!(p >= 2, "need at least writer and home");
    assert!(
        s <= p - 2,
        "at most p-2 clusters can share (writer and home excluded)"
    );
    let mut rng = SimRng::seeded(seed ^ (s as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut total = 0u64;
    let mut others: Vec<NodeId> = Vec::with_capacity(p);
    for _ in 0..events {
        let h: NodeId = rng.below(p as u64) as u16;
        let w: NodeId = loop {
            let c = rng.below(p as u64) as u16;
            if c != h {
                break c;
            }
        };
        others.clear();
        others.extend((0..p as NodeId).filter(|&n| n != h && n != w));
        rng.shuffle(&mut others);
        let mut entry = DirEntry::new(scheme, p);
        for &n in &others[..s] {
            // Dir_NB never appears in Figure 2 (its sharer count cannot
            // exceed i); evictions here would silently shrink the set, so we
            // simply record whatever the entry keeps.
            let _ = entry.add_sharer(n);
        }
        let mut targets = entry.invalidation_targets(w);
        targets.remove(h);
        total += targets.len() as u64;
    }
    total as f64 / events as f64
}

/// A full Figure-2 curve: average invalidations for every sharer count
/// `0..=p-2`.
pub fn invalidation_curve(scheme: Scheme, p: usize, events: usize, seed: u64) -> Vec<f64> {
    (0..=p - 2)
        .map(|s| average_invalidations(scheme, p, s, events, seed))
        .collect()
}

/// The area between a scheme's curve and the ideal (full-vector) line —
/// the paper's visual measure of extraneous invalidations.
pub fn extraneous_area(curve: &[f64]) -> f64 {
    curve
        .iter()
        .enumerate()
        .map(|(s, &v)| (v - s as f64).max(0.0))
        .sum()
}

/// Closed-form expectation for `Dir_i B` (used to validate the Monte Carlo).
pub fn dir_b_exact(i: usize, p: usize, s: usize) -> f64 {
    if s <= i {
        s as f64
    } else {
        (p - 2) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const P: usize = 32;
    const EVENTS: usize = 2_000;

    #[test]
    fn full_vector_curve_is_identity() {
        let c = invalidation_curve(Scheme::dir_n(), P, 200, 1);
        for (s, v) in c.iter().enumerate() {
            assert!((v - s as f64).abs() < 1e-9, "s={s} v={v}");
        }
    }

    #[test]
    fn broadcast_matches_closed_form() {
        for s in [0, 1, 3, 4, 10, 30] {
            let mc = average_invalidations(Scheme::dir_b(3), P, s, EVENTS, 2);
            let exact = dir_b_exact(3, P, s);
            assert!(
                (mc - exact).abs() < 1e-9,
                "s={s}: mc={mc} exact={exact} (B is deterministic)"
            );
        }
    }

    #[test]
    fn coarse_vector_bounded_by_region_rounding() {
        // Dir3CV2: for s > 3 sharers the targets are whole regions of 2, so
        // invalidations are at most 2s (and at least s, minus w/h overlap).
        for s in [4, 8, 16, 30] {
            let v = average_invalidations(Scheme::dir_cv(3, 2), P, s, EVENTS, 3);
            assert!(v >= s as f64 - 2.0, "s={s} v={v}");
            assert!(v <= (2 * s) as f64, "s={s} v={v}");
        }
    }

    #[test]
    fn scheme_ordering_matches_figure_2() {
        // For a mid-range sharer count: Dir_N < Dir3CV2 < Dir3X <= Dir3B.
        let s = 8;
        let full = average_invalidations(Scheme::dir_n(), P, s, EVENTS, 4);
        let cv = average_invalidations(Scheme::dir_cv(3, 2), P, s, EVENTS, 4);
        let x = average_invalidations(Scheme::dir_x(3), P, s, EVENTS, 4);
        let b = average_invalidations(Scheme::dir_b(3), P, s, EVENTS, 4);
        assert!(full < cv, "full={full} cv={cv}");
        assert!(cv < x, "cv={cv} x={x}");
        assert!(x <= b + 1e-9, "x={x} b={b}");
        // And the paper's observation that X "is almost as bad as broadcast":
        assert!(b - x < 0.15 * b, "x={x} should be within 15% of b={b}");
    }

    #[test]
    fn all_schemes_converge_at_maximum_sharers() {
        let s = P - 2;
        for scheme in [
            Scheme::dir_n(),
            Scheme::dir_b(3),
            Scheme::dir_x(3),
            Scheme::dir_cv(3, 2),
        ] {
            let v = average_invalidations(scheme, P, s, 500, 5);
            assert!(
                (v - s as f64).abs() < 1e-9,
                "{scheme:?}: everyone shares, so v={v} must equal {s}"
            );
        }
    }

    #[test]
    fn extraneous_area_ranks_schemes() {
        let ev = 500;
        let cv = extraneous_area(&invalidation_curve(Scheme::dir_cv(3, 2), P, ev, 6));
        let x = extraneous_area(&invalidation_curve(Scheme::dir_x(3), P, ev, 6));
        let b = extraneous_area(&invalidation_curve(Scheme::dir_b(3), P, ev, 6));
        assert!(cv < x && x < b, "cv={cv} x={x} b={b}");
        // Coarse vector's extraneous area is much smaller: each region bit
        // overshoots by at most r-1 = 1 node, so it is bounded by half the
        // broadcast area (observed ~40% for Dir3CV2 on 32 clusters).
        assert!(cv < 0.5 * b, "cv={cv} should be well under half of b={b}");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = invalidation_curve(Scheme::dir_cv(3, 2), 16, 100, 9);
        let b = invalidation_curve(Scheme::dir_cv(3, 2), 16, 100, 9);
        assert_eq!(a, b);
    }
}
