//! Cross-run comparison: diff two `scd-run-stats/v1` documents and judge
//! regressions against a tolerance.
//!
//! This is the consumer side of the perf trajectory: `BENCH_*.json`
//! points (and any `scdsim --stats-json` output) are stats documents, so
//! a committed baseline plus a fresh run plus [`compare_docs`] is a CI
//! perf gate. Tracked metrics are the paper's own evaluation axes —
//! execution time, traffic per shared reference, invalidations per write,
//! mean hops — plus the phase-latency percentiles when the metrics
//! registry was on. All are lower-is-better; a candidate regresses when
//! any metric exceeds the baseline by more than the tolerance (in
//! percent).

use crate::json::Json;

/// One tracked metric of one comparison.
#[derive(Clone, Debug, PartialEq)]
pub struct ReportMetric {
    /// Stable metric name.
    pub name: &'static str,
    /// Baseline value.
    pub base: f64,
    /// Candidate value.
    pub cand: f64,
    /// Relative change in percent (positive = worse; infinite when the
    /// baseline is zero and the candidate is not).
    pub delta_pct: f64,
    /// Whether the change exceeds the tolerance.
    pub regressed: bool,
}

/// The outcome of comparing one candidate against one baseline.
#[derive(Clone, Debug)]
pub struct Comparison {
    /// Baseline document label (`app/scheme` when the run section names
    /// them).
    pub base_label: String,
    /// Candidate document label.
    pub cand_label: String,
    /// Tolerance applied, in percent.
    pub tolerance_pct: f64,
    /// Tracked metrics present in both documents.
    pub metrics: Vec<ReportMetric>,
}

impl Comparison {
    /// Metrics that regressed beyond the tolerance.
    pub fn regressions(&self) -> impl Iterator<Item = &ReportMetric> {
        self.metrics.iter().filter(|m| m.regressed)
    }

    /// Whether the candidate passes the gate.
    pub fn ok(&self) -> bool {
        self.metrics.iter().all(|m| !m.regressed)
    }

    /// Fixed-width comparison table plus a verdict line. Stable output —
    /// golden-tested.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "baseline:  {}", self.base_label);
        let _ = writeln!(out, "candidate: {}", self.cand_label);
        let _ = writeln!(
            out,
            "{:<18} {:>14} {:>14} {:>10}  verdict",
            "metric", "baseline", "candidate", "delta"
        );
        for m in &self.metrics {
            let delta = if m.delta_pct.is_infinite() {
                "+inf%".to_string()
            } else {
                format!("{:+.2}%", m.delta_pct)
            };
            let _ = writeln!(
                out,
                "{:<18} {:>14} {:>14} {:>10}  {}",
                m.name,
                fmt_value(m.base),
                fmt_value(m.cand),
                delta,
                if m.regressed { "REGRESSED" } else { "ok" }
            );
        }
        let failed = self.regressions().count();
        if failed == 0 {
            let _ = writeln!(
                out,
                "PASS: {} metrics within {}% of baseline",
                self.metrics.len(),
                fmt_value(self.tolerance_pct)
            );
        } else {
            let _ = writeln!(
                out,
                "FAIL: {failed} of {} metrics regressed beyond {}%",
                self.metrics.len(),
                fmt_value(self.tolerance_pct)
            );
        }
        out
    }
}

/// Integers print bare, everything else with 4 decimals.
fn fmt_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.4}")
    }
}

/// A short label for a stats document: `app/scheme` from its run section
/// when present.
pub fn doc_label(doc: &Json) -> String {
    let run = doc.get("run");
    let field = |key| {
        run.and_then(|r| r.get(key))
            .and_then(Json::as_str)
            .unwrap_or("?")
    };
    format!("{}/{}", field("app"), field("scheme"))
}

fn num(j: &Json) -> Option<f64> {
    j.as_f64().or_else(|| j.as_u64().map(|v| v as f64))
}

fn section_u64(stats: &Json, path: &[&str]) -> Option<f64> {
    let mut cur = stats;
    for key in path {
        cur = cur.get(key)?;
    }
    num(cur)
}

/// Extracts the tracked metrics of one `scd-run-stats/v1` document, in
/// schema order. Latency percentiles appear only when the document
/// carries a non-null metrics registry.
pub fn tracked_metrics(doc: &Json) -> Result<Vec<(&'static str, f64)>, String> {
    let schema = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("missing `schema`")?;
    if schema != crate::schema::RUN_STATS_SCHEMA {
        return Err(format!("unexpected schema `{schema}`"));
    }
    let stats = doc.get("stats").ok_or("missing `stats`")?;
    let need = |path: &[&str]| {
        section_u64(stats, path)
            .ok_or_else(|| format!("stats.{} missing or non-numeric", path.join(".")))
    };
    let cycles = need(&["cycles"])?;
    let reads = need(&["shared_reads"])?;
    let writes = need(&["shared_writes"])?;
    let traffic_total = need(&["traffic", "total"])?;
    let invals = need(&["traffic", "invalidations"])?;
    let mean_hops = need(&["network", "mean_hops"])?;
    let refs = (reads + writes).max(1.0);
    let mut out = vec![
        ("cycles", cycles),
        ("traffic_per_ref", traffic_total / refs),
        ("invals_per_write", invals / writes.max(1.0)),
        ("mean_hops", mean_hops),
    ];
    if let Some(metrics) = doc.get("metrics") {
        if *metrics != Json::Null {
            for (name, kind, pct) in [
                ("read_p50", "read", "p50"),
                ("read_p99", "read", "p99"),
                ("write_p50", "write", "p50"),
                ("write_p99", "write", "p99"),
            ] {
                if let Some(v) = section_u64(metrics, &["latency", kind, pct]) {
                    out.push((name, v));
                }
            }
        }
    }
    Ok(out)
}

/// Compares a candidate document against a baseline at `tolerance_pct`.
/// Only metrics present in both documents are judged (a baseline without
/// the metrics registry cannot gate latency percentiles).
pub fn compare_docs(
    base: &Json,
    cand: &Json,
    tolerance_pct: f64,
) -> Result<Comparison, String> {
    let base_metrics = tracked_metrics(base).map_err(|e| format!("baseline: {e}"))?;
    let cand_metrics = tracked_metrics(cand).map_err(|e| format!("candidate: {e}"))?;
    let mut metrics = Vec::new();
    for &(name, b) in &base_metrics {
        let Some(c) = cand_metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, c)| c)
        else {
            continue;
        };
        let (delta_pct, regressed) = if b == 0.0 {
            if c == 0.0 {
                (0.0, false)
            } else {
                (f64::INFINITY, true)
            }
        } else {
            let d = (c - b) / b * 100.0;
            (d, d > tolerance_pct)
        };
        metrics.push(ReportMetric {
            name,
            base: b,
            cand: c,
            delta_pct,
            regressed,
        });
    }
    if metrics.is_empty() {
        return Err("no tracked metrics in common".into());
    }
    Ok(Comparison {
        base_label: doc_label(base),
        cand_label: doc_label(cand),
        tolerance_pct,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(cycles: u64, traffic: [u64; 4], reads: u64, writes: u64) -> Json {
        let total: u64 = traffic.iter().sum();
        Json::parse(&format!(
            r#"{{"schema":"scd-run-stats/v1",
                "run":{{"app":"mp3d","scheme":"Dir4CV4"}},
                "stats":{{"cycles":{cycles},"shared_reads":{reads},
                  "shared_writes":{writes},"l2_misses":0,
                  "traffic":{{"requests":{},"replies":{},"invalidations":{},
                    "acks":{},"total":{total}}},
                  "network":{{"messages":{total},"hops":10,"mean_hops":2.5,
                    "contention_cycles":0}}}},
                "metrics":null}}"#,
            traffic[0], traffic[1], traffic[2], traffic[3],
        ))
        .unwrap()
    }

    #[test]
    fn self_comparison_is_clean() {
        let d = doc(1000, [40, 40, 10, 10], 50, 25);
        let cmp = compare_docs(&d, &d, 5.0).unwrap();
        assert!(cmp.ok());
        assert!(cmp.metrics.iter().all(|m| m.delta_pct == 0.0));
        assert_eq!(cmp.base_label, "mp3d/Dir4CV4");
    }

    #[test]
    fn tolerance_boundary_is_strict() {
        let base = doc(1000, [40, 40, 10, 10], 50, 25);
        // +4.9% cycles: just under a 5% tolerance.
        let under = doc(1049, [40, 40, 10, 10], 50, 25);
        assert!(compare_docs(&base, &under, 5.0).unwrap().ok());
        // +5.1%: just over.
        let over = doc(1051, [40, 40, 10, 10], 50, 25);
        let cmp = compare_docs(&base, &over, 5.0).unwrap();
        assert!(!cmp.ok());
        let failed: Vec<_> = cmp.regressions().map(|m| m.name).collect();
        assert_eq!(failed, ["cycles"]);
    }

    #[test]
    fn improvements_never_regress() {
        let base = doc(1000, [40, 40, 10, 10], 50, 25);
        let faster = doc(500, [20, 20, 5, 5], 50, 25);
        assert!(compare_docs(&base, &faster, 0.0).unwrap().ok());
    }

    #[test]
    fn zero_baseline_with_traffic_is_infinite_regression() {
        let base = doc(1000, [40, 40, 0, 10], 50, 25);
        let cand = doc(1000, [40, 40, 10, 10], 50, 25);
        let cmp = compare_docs(&base, &cand, 1000.0).unwrap();
        let m = cmp
            .metrics
            .iter()
            .find(|m| m.name == "invals_per_write")
            .unwrap();
        assert!(m.delta_pct.is_infinite());
        assert!(m.regressed, "infinite regression ignores tolerance");
    }

    #[test]
    fn latency_percentiles_gate_only_when_both_have_metrics() {
        let plain = doc(1000, [40, 40, 10, 10], 50, 25);
        let mut with_metrics = plain.clone();
        with_metrics.set(
            "metrics",
            Json::parse(
                r#"{"schema":"scd-metrics/v1",
                    "latency":{"read":{"p50":100,"p99":400},
                               "write":{"p50":150,"p99":600}}}"#,
            )
            .unwrap(),
        );
        let cmp = compare_docs(&plain, &with_metrics, 5.0).unwrap();
        assert_eq!(cmp.metrics.len(), 4, "no percentile gating vs a plain baseline");
        let cmp2 = compare_docs(&with_metrics, &with_metrics, 5.0).unwrap();
        assert_eq!(cmp2.metrics.len(), 8);
        assert!(cmp2.metrics.iter().any(|m| m.name == "write_p99"));
    }

    #[test]
    fn render_is_stable() {
        let base = doc(1000, [40, 40, 10, 10], 50, 25);
        let over = doc(1100, [40, 40, 10, 10], 50, 25);
        let text = compare_docs(&base, &over, 5.0).unwrap().render();
        assert!(text.contains("baseline:  mp3d/Dir4CV4"), "{text}");
        assert!(text.contains("REGRESSED"), "{text}");
        assert!(text.contains("FAIL: 1 of 4 metrics regressed beyond 5%"), "{text}");
        let clean = compare_docs(&base, &base, 5.0).unwrap().render();
        assert!(clean.contains("PASS: 4 metrics within 5% of baseline"), "{clean}");
    }

    #[test]
    fn rejects_foreign_documents() {
        assert!(tracked_metrics(&Json::obj()).is_err());
        let wrong = Json::parse(r#"{"schema":"other/v1"}"#).unwrap();
        assert!(compare_docs(&wrong, &wrong, 5.0).is_err());
    }
}
