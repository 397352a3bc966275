//! Host-speed calibration.
//!
//! The sandbox shares its caches with other tenants. For minutes on end
//! everything cache-missy, the simulator included, runs 1.1 to 1.5 times
//! slower, while a dependent arithmetic chain is unaffected (README,
//! "Quiet-host seconds"). No statistic of a run's own pass times can see
//! that a whole run was slow, so the run also times a yardstick: a fixed
//! `std` hash-map kernel with a working set like the simulator's, sampled
//! before the timed segments. A run's times are then scaled by
//! [`host_speed`]: seconds on a host where the kernel takes [`NOMINAL_S`].
//!
//! The kernel uses nothing from the simulator, so no change to the
//! simulator's code can move it.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::spans::Spans;

/// The kernel's quiet time on the reference host. Times are reported as if
/// every run measured this.
pub const NOMINAL_S: f64 = 0.004;
/// Least time between the end of one sample and the start of the next, so
/// that millisecond segments do not drown in samples.
const MIN_GAP: Duration = Duration::from_millis(50);
/// Map operations per sample.
const OPS: usize = 150_000;
/// Distinct keys: about 7 MB of table, beyond the private caches.
const KEYS: u64 = 1 << 16;

/// Samples the calibration kernel between timed segments.
pub struct Meter {
    keys: Vec<u64>,
    /// The kernel's table, kept between samples: a sample that allocated
    /// its own would also time the allocator and the page faults of
    /// whatever state the simulator left the heap in.
    map: RefCell<HashMap<u64, [u64; 6]>>,
    last: Cell<Option<Instant>>,
}

impl Meter {
    /// A meter with its fixed key stream (the same for every seed: the
    /// kernel is a yardstick, not an input).
    pub fn new() -> Self {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let keys = (0..OPS)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x % KEYS
            })
            .collect();
        Meter {
            keys,
            map: RefCell::new(HashMap::with_capacity(KEYS as usize)),
            last: Cell::new(None),
        }
    }

    /// Times the kernel once, unless the last sample ended less than
    /// [`MIN_GAP`] ago and `force` is off. Called before a timed segment,
    /// never inside one; a pass's first segment forces its sample, so that
    /// later samples fall before the same segments in every pass.
    pub fn tick(&self, sp: &Spans, force: bool) -> Option<f64> {
        if !force && self.last.get().is_some_and(|t| t.elapsed() < MIN_GAP) {
            return None;
        }
        let seconds = sp.time("bench.calibrate", "", || {
            let mut map = self.map.borrow_mut();
            let t = Instant::now();
            map.clear();
            let mut acc = 0u64;
            for (i, &k) in self.keys.iter().enumerate() {
                let e = map.entry(k).or_insert([0; 6]);
                e[i % 6] = e[i % 6].wrapping_add(k);
                acc = acc.wrapping_add(e[0]);
            }
            black_box(acc);
            t.elapsed().as_secs_f64()
        });
        self.last.set(Some(Instant::now()));
        Some(seconds)
    }
}

/// The factor from clocked seconds to seconds at nominal host speed, from
/// the samples taken before each segment position in each pass (`None`
/// where the rate limit skipped one): [`NOMINAL_S`] over the mean, across
/// positions, of each position's fastest sample. That is the statistic
/// [`crate::stat::quiet_sum`] applies to the segments themselves, so the
/// yardstick and the work read the same quiet moments of the run.
///
/// Returns 1 when there is no sample at all.
pub fn host_speed(passes: &[Vec<Option<f64>>]) -> f64 {
    let positions = passes.iter().map(Vec::len).max().unwrap_or(0);
    let fastest: Vec<f64> = (0..positions)
        .filter_map(|j| {
            passes
                .iter()
                .filter_map(|p| p.get(j).copied().flatten())
                .min_by(f64::total_cmp)
        })
        .collect();
    if fastest.is_empty() {
        return 1.0;
    }
    NOMINAL_S / (fastest.iter().sum::<f64>() / fastest.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_are_rate_limited_unless_forced() {
        let (meter, sp) = (Meter::new(), Spans::new());
        assert!(meter.tick(&sp, false).is_some_and(|s| s > 0.0));
        assert!(
            meter.tick(&sp, false).is_none(),
            "the sample above has just ended"
        );
        assert!(meter.tick(&sp, true).is_some());
    }

    #[test]
    fn host_speed_reads_each_positions_fastest_sample() {
        let passes = [
            vec![Some(0.02), None, Some(0.04)],
            vec![Some(0.01), None, None],
            vec![Some(0.03), Some(0.05), Some(0.03)],
        ];
        // Fastest per position: 0.01, 0.05, 0.03.
        assert_eq!(host_speed(&passes), NOMINAL_S / 0.03);
        assert_eq!(host_speed(&[vec![None, None]]), 1.0);
        assert_eq!(host_speed(&[]), 1.0);
    }
}
