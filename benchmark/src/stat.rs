//! Small numeric helpers: order statistics of pass times and the process's
//! peak resident set.

/// Median, extremes and count of a sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Middle value (mean of the two middle values for an even count).
    pub median: f64,
    /// Smallest value.
    pub min: f64,
    /// Largest value.
    pub max: f64,
    /// Sample count.
    pub n: usize,
}

/// Summarizes `values`.
///
/// # Panics
/// On an empty sample: every caller times at least one pass.
pub fn summary(values: &[f64]) -> Summary {
    assert!(!values.is_empty(), "summary of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let median = if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    };
    Summary {
        median,
        min: v[0],
        max: v[n - 1],
        n,
    }
}

/// The quiet-host time of a repeated sequence of segments: each segment's
/// smallest sample across the repetitions, summed.
///
/// The simulator is deterministic, so a segment does the same work every
/// time and its samples differ only by what the host added: interference
/// from other tenants arrives in bursts of a second or so and only ever
/// adds time. A whole pass rarely escapes every burst, but each of its
/// segments usually does in some repetition.
///
/// # Panics
/// On no repetitions, or repetitions of different lengths.
pub fn quiet_sum(repetitions: &[Vec<f64>]) -> f64 {
    let segments = repetitions.first().expect("at least one repetition").len();
    assert!(
        repetitions.iter().all(|r| r.len() == segments),
        "repetitions differ in length"
    );
    (0..segments)
        .map(|i| {
            repetitions
                .iter()
                .map(|r| r[i])
                .fold(f64::INFINITY, f64::min)
        })
        .sum()
}

/// The `VmHWM` line of a `/proc/<pid>/status` text, in kB.
pub fn parse_vm_hwm(status: &str) -> Option<u64> {
    let rest = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let mut parts = rest.split_whitespace();
    let kb = parts.next()?.parse().ok()?;
    (parts.next() == Some("kB")).then_some(kb)
}

/// Peak resident set of this process in MB (`VmHWM`), or `None` where
/// `/proc` does not provide it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm(&status).map(|kb| kb as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_odd_even_and_single_samples() {
        let s = summary(&[3.0, 1.0, 2.0]);
        assert_eq!((s.median, s.min, s.max, s.n), (2.0, 1.0, 3.0, 3));
        let s = summary(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!((s.median, s.min, s.max, s.n), (2.5, 1.0, 4.0, 4));
        let s = summary(&[7.5]);
        assert_eq!((s.median, s.min, s.max, s.n), (7.5, 7.5, 7.5, 1));
    }

    #[test]
    fn quiet_sum_takes_each_segments_fastest_repetition() {
        let reps = [
            vec![1.0, 5.0, 2.0],
            vec![3.0, 4.0, 1.5],
            vec![2.0, 6.0, 9.0],
        ];
        assert_eq!(quiet_sum(&reps), 1.0 + 4.0 + 1.5);
        assert_eq!(quiet_sum(&[vec![0.5, 0.25]]), 0.75);
        assert_eq!(quiet_sum(&[vec![], vec![]]), 0.0);
    }

    #[test]
    fn vm_hwm_is_parsed_from_a_status_text() {
        let status =
            "Name:\tscd-benchmark\nVmPeak:\t  300000 kB\nVmHWM:\t  123456 kB\nVmRSS:\t   99 kB\n";
        assert_eq!(parse_vm_hwm(status), Some(123456));
        assert_eq!(parse_vm_hwm("Name:\tx\nVmRSS:\t 1 kB\n"), None);
        assert_eq!(parse_vm_hwm("VmHWM:\t lots kB\n"), None);
        assert_eq!(parse_vm_hwm("VmHWM:\t 12 MB\n"), None);
        assert!(peak_rss_mb().is_none_or(|mb| mb > 0.0));
    }
}
