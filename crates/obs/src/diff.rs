//! Bench-baseline comparison: the engine behind the `bench-diff` binary.
//!
//! Compares a freshly generated `BENCH_kernels.json`, `BENCH_adapters.json`,
//! or `results/repro_metrics.json` against the committed baseline and flags
//! per-metric regressions. A watched metric with a positive (or zero)
//! threshold is lower-is-better: a candidate value is a regression when it
//! exceeds `baseline * (1 + threshold)`. A negative threshold marks an
//! in-run ratio where higher is better: a candidate below
//! `baseline * (1 + threshold)` regresses. A ratio of two rows timed in
//! the same run sees through a host-wide slow spell that stretches every
//! absolute time at once.
//!
//! Rows inside a `results` array are keyed by whichever identity fields they
//! carry (`kernel`/`size`/`backend`/`threads` for kernel benches,
//! `task`/`variant` for adapter sweeps), so reordering rows between runs is
//! harmless. A `stage_latency_ns` object (per-stage `p50`/`p99`) is compared
//! stage by stage. Baseline rows or metrics missing from the candidate are
//! regressions too — losing coverage must not pass silently.

use tasfar_nn::json::Json;

/// Relative headroom allowed per metric before a higher candidate value
/// counts as a regression, or, when negative, the relative drop a
/// higher-is-better ratio may take. `resident_bytes` gets zero headroom:
/// adapter memory is deterministic, so any growth is a real change.
pub const THRESHOLDS: &[(&str, f64)] = &[
    ("ns_per_iter", 0.10),
    ("ns_per_iter_p50", 0.15),
    ("ns_per_iter_p90", 0.20),
    ("adapt_ms", 0.25),
    ("err", 0.05),
    ("detect_latency_samples", 0.20),
    ("resident_bytes", 0.0),
    // Serving-bench request latencies (BENCH_serve.json): p50 tracks the
    // typical fused path, p99 the queueing tail — single-run numbers, so
    // the tail gets more headroom.
    ("p50_ns", 0.15),
    ("p99_ns", 0.25),
    // Blocked rows of BENCH_kernels.json: the naive row's time over the
    // blocked row's, both from one run. A slow spell that slows both
    // backends leaves it in place; a blocked kernel that slowed on its own
    // moves it. Watched on 1-thread rows only (see `watched`).
    ("speedup_vs_naive", -0.20),
];

/// Whether `metric` is watched on `row`. `speedup_vs_naive` is watched on
/// 1-thread rows only: with more threads than the host has free cores it
/// tracks the scheduler (the `matmul 32x32x32` 4-thread ratio read 2.00 and
/// then 1.02 on unchanged code, both backends running the naive kernel).
/// Rows where `CpuBlocked` itself runs the naive kernel (`matmul
/// 32x32x32`, `matmul_t 1x512x512`, `matmul 2048x512x1`) read about 1.0
/// and move with host noise only, and the small-batch conv rows' ratios
/// have moved by up to 30% between recordings of unchanged kernels, so a
/// ratio finding is a prompt to re-measure, not proof of a regression.
fn watched(metric: &str, row: &Json) -> bool {
    metric != "speedup_vs_naive" || row.get("threads").and_then(|v| v.as_u64().ok()) == Some(1)
}

/// Relative headroom for per-stage latency percentiles in
/// `stage_latency_ns` sections (single-run numbers, so noisier).
pub const STAGE_LATENCY_THRESHOLD: f64 = 0.25;

/// One comparison outcome. `regression` is true when the candidate exceeded
/// the allowed headroom (or the metric/row disappeared).
#[derive(Debug, Clone)]
pub struct Finding {
    /// Row identity (`kernel|size|backend|tN`, `task|variant`, or a
    /// `stage_latency_ns|stage` key).
    pub key: String,
    /// The metric compared (annotated when missing from the candidate).
    pub metric: String,
    /// Baseline value.
    pub baseline: f64,
    /// Candidate value (`NaN` when missing).
    pub candidate: f64,
    /// `(candidate - baseline) / baseline`.
    pub rel_change: f64,
    /// The relative headroom this metric was allowed (negative: the drop a
    /// higher-is-better ratio was allowed).
    pub threshold: f64,
    /// Whether the candidate exceeded the headroom.
    pub regression: bool,
}

impl Finding {
    /// One-line human rendering for CLI output.
    pub fn describe(&self) -> String {
        format!(
            "{} {}: baseline {:.3} -> candidate {:.3} ({:+.1}%, allowed {:+.0}%){}",
            self.key,
            self.metric,
            self.baseline,
            self.candidate,
            100.0 * self.rel_change,
            100.0 * self.threshold,
            if self.regression { " REGRESSION" } else { "" }
        )
    }
}

/// Builds the identity key of a bench row from whichever id fields exist.
fn row_key(row: &Json) -> String {
    let mut parts = Vec::new();
    for field in ["kernel", "task", "size", "variant", "backend"] {
        if let Some(v) = row.get(field).and_then(|v| v.as_str().ok()) {
            parts.push(v.to_string());
        }
    }
    if let Some(v) = row.get("threads").and_then(|v| v.as_u64().ok()) {
        parts.push(format!("t{v}"));
    }
    if parts.is_empty() {
        "<anonymous>".to_string()
    } else {
        parts.join("|")
    }
}

fn compare_value(
    key: &str,
    metric: &str,
    baseline: f64,
    candidate: Option<f64>,
    threshold: f64,
    findings: &mut Vec<Finding>,
) {
    let Some(candidate) = candidate else {
        findings.push(Finding {
            key: key.to_string(),
            metric: format!("{metric} (missing from candidate)"),
            baseline,
            candidate: f64::NAN,
            rel_change: f64::INFINITY,
            threshold,
            regression: true,
        });
        return;
    };
    let rel_change = if baseline == 0.0 {
        if candidate == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (candidate - baseline) / baseline
    };
    findings.push(Finding {
        key: key.to_string(),
        metric: metric.to_string(),
        baseline,
        candidate,
        rel_change,
        threshold,
        regression: if threshold < 0.0 {
            rel_change < threshold
        } else {
            rel_change > threshold
        },
    });
}

fn compare_rows(key: &str, baseline: &Json, candidate: &Json, findings: &mut Vec<Finding>) {
    for &(metric, threshold) in THRESHOLDS {
        if !watched(metric, baseline) {
            continue;
        }
        let Some(base) = baseline.get(metric).and_then(|v| v.as_f64().ok()) else {
            continue; // metric not recorded in the baseline: nothing to hold the line on
        };
        let cand = candidate.get(metric).and_then(|v| v.as_f64().ok());
        compare_value(key, metric, base, cand, threshold, findings);
    }
}

fn compare_stage_latency(baseline: &Json, candidate: Option<&Json>, findings: &mut Vec<Finding>) {
    let Json::Obj(stages) = baseline else { return };
    for (stage, base_stats) in stages {
        let key = format!("stage_latency_ns|{stage}");
        let cand_stats = candidate.and_then(|c| c.get(stage));
        for quantile in ["p50", "p99"] {
            let Some(base) = base_stats.get(quantile).and_then(|v| v.as_f64().ok()) else {
                continue;
            };
            let cand = cand_stats
                .and_then(|s| s.get(quantile))
                .and_then(|v| v.as_f64().ok());
            compare_value(
                &key,
                quantile,
                base,
                cand,
                STAGE_LATENCY_THRESHOLD,
                findings,
            );
        }
    }
}

/// Compares two bench JSON documents. Returns every watched metric that was
/// present in the baseline, whether it regressed or not; the caller decides
/// how to report and whether to fail.
pub fn diff(baseline: &Json, candidate: &Json) -> Vec<Finding> {
    let mut findings = Vec::new();

    if let Some(Json::Arr(base_rows)) = baseline.get("results") {
        let cand_rows: Vec<&Json> = match candidate.get("results") {
            Some(Json::Arr(rows)) => rows.iter().collect(),
            _ => Vec::new(),
        };
        for base_row in base_rows {
            let key = row_key(base_row);
            match cand_rows.iter().find(|r| row_key(r) == key) {
                Some(cand_row) => compare_rows(&key, base_row, cand_row, &mut findings),
                None => findings.push(Finding {
                    key,
                    metric: "<row missing from candidate>".to_string(),
                    baseline: 0.0,
                    candidate: f64::NAN,
                    rel_change: f64::INFINITY,
                    threshold: 0.0,
                    regression: true,
                }),
            }
        }
    }

    if let Some(base_stages) = baseline.get("stage_latency_ns") {
        compare_stage_latency(
            base_stages,
            candidate.get("stage_latency_ns"),
            &mut findings,
        );
    }

    // repro_metrics.json carries histograms at the top level; their p99s are
    // covered via stage_latency_ns, so nothing further to do here.
    findings
}

/// Multiplies every time-valued metric by `factor`, returning the perturbed
/// document. Used by `bench-diff --perturb` to synthesise a regression for
/// the verify.sh gate without external tooling.
pub fn perturb(doc: &Json, factor: f64) -> Json {
    const TIME_METRICS: &[&str] = &[
        "ns_per_iter",
        "ns_per_iter_p50",
        "ns_per_iter_p90",
        "wall_ns_total",
        "adapt_ms",
        "detect_latency_samples",
        "p50",
        "p90",
        "p99",
        "p50_ns",
        "p99_ns",
    ];
    fn walk(v: &Json, factor: f64) -> Json {
        match v {
            Json::Obj(pairs) => Json::Obj(
                pairs
                    .iter()
                    .map(|(k, child)| {
                        let scaled = if TIME_METRICS.contains(&k.as_str()) {
                            match child {
                                Json::Num(n) => Json::Num(n * factor),
                                Json::UInt(n) => Json::Num(*n as f64 * factor),
                                other => walk(other, factor),
                            }
                        } else {
                            walk(child, factor)
                        };
                        (k.clone(), scaled)
                    })
                    .collect(),
            ),
            Json::Arr(items) => Json::Arr(items.iter().map(|i| walk(i, factor)).collect()),
            other => other.clone(),
        }
    }
    walk(doc, factor)
}

/// Counts regressions in a finding set.
pub fn regression_count(findings: &[Finding]) -> usize {
    findings.iter().filter(|f| f.regression).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kernels_doc() -> Json {
        Json::parse(
            r#"{"results":[
                {"kernel":"matmul","size":"32","backend":"blocked","threads":1,
                 "ns_per_iter":1000.0,"ns_per_iter_p50":1100.0,"wall_ns_total":5000.0},
                {"kernel":"matmul","size":"32","backend":"naive","threads":1,
                 "ns_per_iter":2000.0}
              ],
              "stage_latency_ns":{"predict":{"p50":500.0,"p99":900.0}}}"#,
        )
        .unwrap()
    }

    #[test]
    fn identity_diff_has_no_regressions() {
        let doc = kernels_doc();
        let findings = diff(&doc, &doc);
        assert!(!findings.is_empty());
        assert_eq!(regression_count(&findings), 0);
    }

    #[test]
    fn perturbed_times_regress_but_small_noise_passes() {
        let doc = kernels_doc();
        let perturbed = perturb(&doc, 1.25);
        let findings = diff(&doc, &perturbed);
        assert!(
            regression_count(&findings) >= 3,
            "25% slower must trip ns_per_iter (10%), p50 (15%), and stage p50/p99 (25% boundary is exclusive): {findings:?}"
        );
        let noisy = perturb(&doc, 1.05);
        assert_eq!(
            regression_count(&diff(&doc, &noisy)),
            0,
            "5% jitter stays inside every threshold"
        );
    }

    #[test]
    fn missing_row_and_missing_metric_are_regressions() {
        let doc = kernels_doc();
        let shrunk = Json::parse(
            r#"{"results":[
                {"kernel":"matmul","size":"32","backend":"blocked","threads":1,
                 "ns_per_iter":1000.0}
              ]}"#,
        )
        .unwrap();
        let findings = diff(&doc, &shrunk);
        let regressions: Vec<&Finding> = findings.iter().filter(|f| f.regression).collect();
        assert!(
            regressions.iter().any(|f| f.metric.contains("row missing")),
            "dropped naive row is a regression: {findings:?}"
        );
        assert!(
            regressions
                .iter()
                .any(|f| f.metric.contains("ns_per_iter_p50")),
            "dropped p50 metric is a regression: {findings:?}"
        );
        assert!(
            regressions
                .iter()
                .any(|f| f.key.starts_with("stage_latency_ns")),
            "dropped stage section is a regression: {findings:?}"
        );
    }

    #[test]
    fn serve_latency_metrics_are_watched() {
        let base = Json::parse(
            r#"{"results":[{"task":"serve","size":"tenants:1000","variant":"batched",
                 "ops_per_sec":104000.0,"p50_ns":52000,"p99_ns":210000,
                 "resident_bytes":16528}]}"#,
        )
        .unwrap();
        assert_eq!(regression_count(&diff(&base, &base)), 0);
        let slow = perturb(&base, 1.3);
        assert!(
            regression_count(&diff(&base, &slow)) >= 2,
            "30% slower must trip both p50_ns (15%) and p99_ns (25%)"
        );
        let jitter = perturb(&base, 1.10);
        assert_eq!(
            regression_count(&diff(&base, &jitter)),
            0,
            "10% jitter stays inside the p50_ns/p99_ns headroom, and perturb \
             leaves the zero-headroom resident_bytes untouched"
        );
    }

    #[test]
    fn memory_has_zero_headroom() {
        let base = Json::parse(
            r#"{"results":[{"task":"pdr","variant":"rank:8","resident_bytes":19136,"adapt_ms":100.0,"err":0.03}]}"#,
        )
        .unwrap();
        let bigger = Json::parse(
            r#"{"results":[{"task":"pdr","variant":"rank:8","resident_bytes":19137,"adapt_ms":100.0,"err":0.03}]}"#,
        )
        .unwrap();
        assert_eq!(regression_count(&diff(&base, &base)), 0);
        assert_eq!(regression_count(&diff(&base, &bigger)), 1);
    }

    /// A blocked row and its naive partner, timed in one run.
    fn head_to_head_at(threads: u64, naive_ns: f64, blocked_ns: f64) -> Json {
        Json::parse(&format!(
            r#"{{"results":[
                {{"kernel":"matmul","size":"1x512x512","backend":"naive","threads":{threads},
                 "ns_per_iter":{naive_ns}}},
                {{"kernel":"matmul","size":"1x512x512","backend":"blocked","threads":{threads},
                 "ns_per_iter":{blocked_ns},"speedup_vs_naive":{}}}
              ]}}"#,
            naive_ns / blocked_ns
        ))
        .unwrap()
    }

    fn head_to_head(naive_ns: f64, blocked_ns: f64) -> Json {
        head_to_head_at(1, naive_ns, blocked_ns)
    }

    fn ratio_regressions(findings: &[Finding]) -> usize {
        findings
            .iter()
            .filter(|f| f.regression && f.metric == "speedup_vs_naive")
            .count()
    }

    #[test]
    fn slow_spell_moves_times_but_not_the_in_run_ratio() {
        let base = head_to_head(150_000.0, 60_000.0);
        // Both backends 40% slower: every time regresses, the ratio holds.
        let spell = diff(&base, &head_to_head(210_000.0, 84_000.0));
        assert_eq!(regression_count(&spell), 2, "{spell:?}");
        assert_eq!(ratio_regressions(&spell), 0, "{spell:?}");
        // Blocked alone 40% slower: its time and the ratio regress.
        let blocked = diff(&base, &head_to_head(150_000.0, 84_000.0));
        assert_eq!(ratio_regressions(&blocked), 1, "{blocked:?}");
        assert_eq!(regression_count(&blocked), 2, "{blocked:?}");
        // A higher ratio is an improvement, never a finding.
        let faster = diff(&base, &head_to_head(150_000.0, 40_000.0));
        assert_eq!(regression_count(&faster), 0, "{faster:?}");
    }

    #[test]
    fn ratio_is_not_watched_on_multi_thread_rows() {
        // The ratio halves (naive unchanged, blocked 2x slower) on a
        // 4-thread row: only the blocked time is a finding.
        let base = head_to_head_at(4, 120_000.0, 60_000.0);
        let findings = diff(&base, &head_to_head_at(4, 120_000.0, 120_000.0));
        assert_eq!(ratio_regressions(&findings), 0, "{findings:?}");
        assert!(findings.iter().all(|f| f.metric != "speedup_vs_naive"));
        assert_eq!(regression_count(&findings), 1, "{findings:?}");
    }

    #[test]
    fn row_keys_use_identity_fields() {
        let row = Json::parse(
            r#"{"kernel":"matmul","size":"32","backend":"blocked","threads":4,"ns_per_iter":1.0}"#,
        )
        .unwrap();
        assert_eq!(row_key(&row), "matmul|32|blocked|t4");
        let adapter = Json::parse(r#"{"task":"pdr","variant":"rank:8","err":1.0}"#).unwrap();
        assert_eq!(row_key(&adapter), "pdr|rank:8");
    }
}
