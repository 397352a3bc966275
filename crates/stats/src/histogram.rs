//! Invalidation-distribution histograms (Figures 3–6).

/// A dense histogram over small non-negative integers (e.g. invalidations
/// per write event, 0..=P).
///
/// Optionally *bounded*: values above a cap saturate into the top bucket,
/// so a pathological run (say, a multi-million-cycle latency under fault
/// injection) cannot allocate per-value buckets without limit. Counts and
/// totals use saturating arithmetic throughout.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Histogram {
    counts: Vec<u64>,
    total_events: u64,
    total_weight: u64,
    /// Largest representable value; 0 means unbounded (legacy behaviour).
    cap: usize,
}

impl Clone for Histogram {
    fn clone(&self) -> Self {
        Histogram {
            counts: self.counts.clone(),
            ..*self
        }
    }

    /// Refills `self`'s buckets in place rather than allocating new ones.
    fn clone_from(&mut self, source: &Self) {
        let Histogram {
            counts,
            total_events,
            total_weight,
            cap,
        } = self;
        counts.clone_from(&source.counts);
        *total_events = source.total_events;
        *total_weight = source.total_weight;
        *cap = source.cap;
    }
}

impl Histogram {
    /// An empty, unbounded histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty histogram whose values saturate at `cap` (values above it
    /// are clamped into the top bucket on record and merge).
    pub fn bounded(cap: usize) -> Self {
        Histogram {
            cap,
            ..Self::default()
        }
    }

    /// The saturation cap (0 = unbounded).
    pub fn cap(&self) -> usize {
        self.cap
    }

    fn clamp(&self, value: usize) -> usize {
        if self.cap > 0 {
            value.min(self.cap)
        } else {
            value
        }
    }

    /// Records one event with the given value (clamped to the cap, if
    /// any; the event count stays exact, the value saturates).
    pub fn record(&mut self, value: usize) {
        let value = self.clamp(value);
        if self.counts.len() <= value {
            self.counts.resize(value + 1, 0);
        }
        self.counts[value] = self.counts[value].saturating_add(1);
        self.total_events = self.total_events.saturating_add(1);
        self.total_weight = self.total_weight.saturating_add(value as u64);
    }

    /// Number of events recorded.
    pub fn events(&self) -> u64 {
        self.total_events
    }

    /// Sum of all recorded values (e.g. total invalidations).
    pub fn weight(&self) -> u64 {
        self.total_weight
    }

    /// Mean value per event (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.total_events == 0 {
            0.0
        } else {
            self.total_weight as f64 / self.total_events as f64
        }
    }

    /// Count of events with exactly `value`.
    pub fn count(&self, value: usize) -> u64 {
        self.counts.get(value).copied().unwrap_or(0)
    }

    /// Fraction of events with exactly `value`.
    pub fn fraction(&self, value: usize) -> f64 {
        if self.total_events == 0 {
            0.0
        } else {
            self.count(value) as f64 / self.total_events as f64
        }
    }

    /// Largest recorded value.
    pub fn max_value(&self) -> usize {
        self.counts
            .iter()
            .rposition(|&c| c > 0)
            .unwrap_or(0)
    }

    /// Smallest value whose cumulative event count reaches fraction `p`
    /// of all events (0 for an empty histogram). `p` is clamped to
    /// `[0, 1]`; any positive `p` targets at least one event, so
    /// `percentile(0.0 + ε)` on a single sample returns that sample.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.total_events == 0 {
            return 0;
        }
        let p = p.clamp(0.0, 1.0);
        let target = ((p * self.total_events as f64).ceil() as u64)
            .clamp(1, self.total_events);
        let mut cum = 0u64;
        for (v, &c) in self.counts.iter().enumerate() {
            cum = cum.saturating_add(c);
            if cum >= target {
                return v as u64;
            }
        }
        self.max_value() as u64
    }

    /// Merges another histogram into this one. Buckets above this
    /// histogram's cap (if any) saturate into the top bucket; totals add
    /// saturating.
    pub fn merge(&mut self, other: &Histogram) {
        for (i, &c) in other.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let v = self.clamp(i);
            if self.counts.len() <= v {
                self.counts.resize(v + 1, 0);
            }
            self.counts[v] = self.counts[v].saturating_add(c);
            // Re-derive the weight from the clamped value so a bounded
            // receiver stays internally consistent; when caps match (the
            // common case) this equals `other.total_weight` exactly.
            self.total_weight = self
                .total_weight
                .saturating_add(c.saturating_mul(v as u64));
        }
        self.total_events = self.total_events.saturating_add(other.total_events);
    }

    /// Renders the distribution as the paper's style of bar chart:
    /// percentage of events per value, one row per value, `width` columns
    /// for 100%.
    pub fn render(&self, title: &str, width: usize) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "{title}");
        let _ = writeln!(
            out,
            "  events: {}   average per event: {:.2}   total weight: {}",
            self.total_events,
            self.mean(),
            self.total_weight
        );
        let max = self.max_value();
        for v in 0..=max {
            let frac = self.fraction(v);
            let bar = "#".repeat((frac * width as f64).round() as usize);
            let _ = writeln!(out, "  {v:>4} | {:>6.2}% {bar}", frac * 100.0);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram() {
        let h = Histogram::new();
        assert_eq!(h.events(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.max_value(), 0);
        assert_eq!(h.fraction(3), 0.0);
    }

    #[test]
    fn record_and_mean() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(1);
        h.record(1);
        h.record(30);
        assert_eq!(h.events(), 4);
        assert_eq!(h.weight(), 32);
        assert_eq!(h.mean(), 8.0);
        assert_eq!(h.count(1), 2);
        assert_eq!(h.max_value(), 30);
        assert!((h.fraction(1) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn merge_combines() {
        let mut a = Histogram::new();
        a.record(2);
        let mut b = Histogram::new();
        b.record(2);
        b.record(5);
        a.merge(&b);
        assert_eq!(a.events(), 3);
        assert_eq!(a.count(2), 2);
        assert_eq!(a.count(5), 1);
        assert_eq!(a.weight(), 9);
    }

    #[test]
    fn merging_empty_histograms_is_a_no_op() {
        let mut a = Histogram::new();
        a.record(3);
        let before = a.clone();
        a.merge(&Histogram::new());
        assert_eq!(a, before, "merging an empty rhs changes nothing");

        let mut empty = Histogram::new();
        empty.merge(&before);
        assert_eq!(empty, before, "merging into an empty lhs copies rhs");

        let mut both = Histogram::new();
        both.merge(&Histogram::new());
        assert_eq!(both, Histogram::new());
        assert_eq!(both.percentile(0.99), 0);
    }

    #[test]
    fn single_sample_percentiles_all_return_the_sample() {
        let mut h = Histogram::new();
        h.record(42);
        for p in [0.0, 0.001, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(h.percentile(p), 42, "p={p}");
        }
        // Out-of-range fractions clamp rather than panic.
        assert_eq!(h.percentile(-1.0), 42);
        assert_eq!(h.percentile(2.0), 42);
    }

    #[test]
    fn percentiles_walk_the_cumulative_distribution() {
        let mut h = Histogram::new();
        for v in 1..=100 {
            h.record(v);
        }
        assert_eq!(h.percentile(0.50), 50);
        assert_eq!(h.percentile(0.90), 90);
        assert_eq!(h.percentile(0.99), 99);
        assert_eq!(h.percentile(1.0), 100);
    }

    #[test]
    fn bounded_values_saturate_into_the_top_bucket() {
        let mut h = Histogram::bounded(8);
        h.record(3);
        h.record(8);
        h.record(1_000_000);
        h.record(usize::MAX);
        assert_eq!(h.events(), 4, "event counts stay exact");
        assert_eq!(h.count(8), 3, "overflowing values clamp to the cap");
        assert_eq!(h.max_value(), 8);
        assert_eq!(h.weight(), 3 + 8 * 3, "weight reflects clamped values");
        assert_eq!(h.percentile(1.0), 8);
    }

    #[test]
    fn merge_clamps_into_the_receivers_cap() {
        let mut wide = Histogram::new();
        wide.record(100);
        wide.record(2);
        let mut narrow = Histogram::bounded(10);
        narrow.merge(&wide);
        assert_eq!(narrow.count(10), 1);
        assert_eq!(narrow.count(2), 1);
        assert_eq!(narrow.max_value(), 10);
        assert_eq!(narrow.weight(), 12);
    }

    #[test]
    fn merge_is_associative() {
        let mut parts = Vec::new();
        for seed in 0..3u64 {
            let mut h = Histogram::bounded(16);
            let mut x = seed.wrapping_mul(0x9E37_79B9).wrapping_add(1);
            for _ in 0..50 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                h.record((x >> 33) as usize % 24); // some values past the cap
            }
            parts.push(h);
        }
        // (a ∪ b) ∪ c
        let mut left = Histogram::bounded(16);
        left.merge(&parts[0]);
        left.merge(&parts[1]);
        let mut left_assoc = Histogram::bounded(16);
        left_assoc.merge(&left);
        left_assoc.merge(&parts[2]);
        // a ∪ (b ∪ c)
        let mut right = Histogram::bounded(16);
        right.merge(&parts[1]);
        right.merge(&parts[2]);
        let mut right_assoc = Histogram::bounded(16);
        right_assoc.merge(&parts[0]);
        right_assoc.merge(&right);
        assert_eq!(left_assoc, right_assoc);
        assert_eq!(left_assoc.events(), 150);
    }

    #[test]
    fn render_contains_rows() {
        let mut h = Histogram::new();
        for _ in 0..3 {
            h.record(1);
        }
        h.record(4);
        let s = h.render("dist", 40);
        assert!(s.contains("dist"));
        assert!(s.contains("events: 4"));
        assert!(s.contains("75.00%"));
        assert!(s.lines().count() >= 7, "rows 0..=4 plus header: {s}");
    }
}
