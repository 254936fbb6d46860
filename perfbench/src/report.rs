//! Turns phase logs into the benchmark's metrics.
//!
//! End-to-end metrics come from what the benchmark thread observed. Per-layer metrics come from the same observations, from the
//! per-phase counter diffs, and (traced run only) from the registry replay.
//! Every per-layer metric is measured from outside the program.

use std::collections::{BTreeMap, HashMap};

use crate::gen::Op;
use crate::phase::{Done, PhaseLog};
use crate::stats::{mean, median, Timing};
use crate::traced::Replay;

/// A metric's name, unit and value, plus the sample count and thin-tail
/// flag of a timing.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub n: usize,
    pub flagged: bool,
}

impl Metric {
    fn new(name: impl Into<String>, unit: &'static str, value: f64, n: usize) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value,
            n,
            flagged: false,
        }
    }
}

/// Failure accounting over the phases other than saturation.
#[derive(Debug, Default, Clone, Copy)]
pub struct Failures {
    pub attempted: usize,
    pub rejected: usize,
    pub lost: usize,
    pub fell_back: usize,
}

impl Failures {
    pub fn failed(&self) -> usize {
        self.rejected + self.lost + self.fell_back
    }
}

/// Counts rejects, admitted ops that never completed, and adapts that
/// fell back to the source, against every op outside the saturation phase.
pub fn failures(logs: &[PhaseLog]) -> Failures {
    let mut f = Failures::default();
    for log in logs.iter().filter(|l| l.name != "sat") {
        let rejected = log.ops.iter().filter(|o| o.id.is_none()).count();
        f.attempted += log.ops.len();
        f.rejected += rejected;
        f.lost += (log.ops.len() - rejected).saturating_sub(log.done.len());
        f.fell_back += log
            .done
            .iter()
            .filter(|d| matches!(d.done, Done::Adapt("fell_back")))
            .count();
    }
    f
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Scheduled arrival → observed completion (ms) of every completed op
/// outside the saturation phase for which `want` holds.
fn latencies(logs: &[PhaseLog], want: impl Fn(&Op) -> bool) -> Vec<f64> {
    let mut out = Vec::new();
    for log in logs.iter().filter(|l| l.name != "sat") {
        let op_of = log.op_of();
        for d in &log.done {
            let op = &log.ops[op_of[&d.id]];
            if want(&op.op) {
                out.push(ms(log.calls[d.call].end_ns.saturating_sub(op.at_ns)));
            }
        }
    }
    out
}

/// Everything the end-to-end metrics need beyond the phase logs.
pub struct Outside {
    pub setup_s: Vec<f64>,
    pub err_ratio: f64,
    pub err_walkers: usize,
    pub peak_rss_mb: f64,
}

/// The end-to-end metrics of one run.
pub fn end_to_end(logs: &[PhaseLog], outside: &Outside) -> Vec<Metric> {
    let timing = |name_50: &str, name_hi: &str, values: &[f64], q: f64| -> Vec<Metric> {
        let t = Timing::of(values, q);
        let (p50, high, n, flagged) =
            t.map_or((0.0, 0.0, 0, true), |t| (t.p50, t.high, t.n, t.flagged()));
        let mut hi = Metric::new(name_hi, "ms", high, n);
        hi.flagged = flagged;
        vec![Metric::new(name_50, "ms", p50, n), hi]
    };
    let sat = blocks(logs, "sat");
    let counted: usize = sat.iter().map(|l| l.counted).sum();
    let sat_s: f64 = sat.iter().map(|l| l.length_ns as f64 / 1e9).sum();
    let mut out = vec![Metric::new(
        "setup_s",
        "s",
        median(&outside.setup_s),
        outside.setup_s.len(),
    )];
    out.extend(timing(
        "predict_p50_ms",
        "predict_p99_ms",
        &latencies(logs, |o| matches!(o, Op::Predict { .. })),
        0.99,
    ));
    out.push(Metric::new(
        "predict_throughput_rps",
        "1/s",
        ratio(counted as f64, sat_s),
        counted,
    ));
    out.extend(timing(
        "adapt_p50_ms",
        "adapt_p90_ms",
        &latencies(logs, |o| matches!(o, Op::Adapt { .. })),
        0.90,
    ));
    out.push(Metric::new(
        "adapt_err_ratio",
        "ratio",
        outside.err_ratio,
        outside.err_walkers,
    ));
    out.push(Metric::new("peak_rss_mb", "MiB", outside.peak_rss_mb, 1));
    out
}

/// Takes metrics measured on a host running at `1 / factor` of the
/// reference speed to the reference speed: times are multiplied by
/// `factor`, rates divided by it, counts and ratios left alone.
pub fn scale(metrics: &mut [Metric], factor: f64) {
    for m in metrics {
        match m.unit {
            "s" | "ms" | "us" => m.value *= factor,
            "1/s" | "GFLOP/s" => m.value /= factor,
            _ => {}
        }
    }
}

/// The sum of a counter's change over `blocks`.
fn total(blocks: &[&PhaseLog], key: &str) -> f64 {
    blocks.iter().map(|l| l.diff.get(key)).sum()
}

/// The pooled `(count, sum)` of a histogram's change over `blocks`.
fn hist_total(blocks: &[&PhaseLog], key: &str) -> (f64, f64) {
    blocks.iter().fold((0.0, 0.0), |(c, s), l| {
        let (lc, ls) = l.diff.hist(key);
        (c + lc, s + ls)
    })
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The blocks of the phase called `name`.
fn blocks<'a>(logs: &'a [PhaseLog], name: &str) -> Vec<&'a PhaseLog> {
    logs.iter().filter(|l| l.name == name).collect()
}

/// The serve-layer metrics of one phase, pooled over its blocks and
/// prefixed with the phase name.
fn serve_layers(
    flops_per_row: f64,
    p: &str,
    blocks: &[&PhaseLog],
    replay: Option<&Replay>,
    out: &mut Vec<Metric>,
) {
    let (mut wait, mut submit_us, mut batch_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut busy_ns, mut length_ns) = (0u64, 0u64);
    for log in blocks {
        let op_of = log.op_of();
        for d in log
            .done
            .iter()
            .filter(|d| matches!(d.done, Done::Predict { .. }))
        {
            let op = &log.ops[op_of[&d.id]];
            wait.push(ms(log.calls[d.call].start_ns.saturating_sub(op.at_ns)));
        }
        submit_us.extend(
            log.ops
                .iter()
                .filter(|o| matches!(o.op, Op::Predict { .. }))
                .map(|o| o.submit_ns as f64 / 1e3),
        );
        batch_ms.extend(
            log.calls
                .iter()
                .filter(|c| c.predicts > 0)
                .map(|c| ms(c.end_ns - c.start_ns)),
        );
        busy_ns += log
            .calls
            .iter()
            .filter(|c| c.start_ns < log.length_ns)
            .map(|c| c.end_ns - c.start_ns)
            .sum::<u64>();
        length_ns += log.length_ns;
    }
    let rows: usize = blocks
        .iter()
        .flat_map(|l| l.calls.iter())
        .map(|c| c.predicts)
        .sum();
    let w = Timing::of(&wait, 0.99);
    let b = Timing::of(&batch_ms, 0.99);
    let batch_s = batch_ms.iter().sum::<f64>() / 1e3;
    // One registry lookup per tenant group of each fused batch.
    let (tenant_batches, lookups) = hist_total(blocks, "serve.batch.tenants");
    let rehydrations = total(blocks, "registry.rehydrations");
    let end = blocks.last().map(|l| l.registry_end);
    let mut m = |name: &str, unit: &'static str, value: f64, n: usize| {
        out.push(Metric::new(format!("{p}.{name}"), unit, value, n));
    };
    m(
        "serve.queue.wait_ms.p50",
        "ms",
        w.map_or(0.0, |t| t.p50),
        wait.len(),
    );
    m(
        "serve.queue.wait_ms.p99",
        "ms",
        w.map_or(0.0, |t| t.high),
        wait.len(),
    );
    m(
        "serve.queue.submit_us.p50",
        "us",
        median(&submit_us),
        submit_us.len(),
    );
    m(
        "serve.queue.rejected",
        "count",
        total(blocks, "serve.queue.rejected"),
        1,
    );
    m(
        "serve.engine.batch_ms.p50",
        "ms",
        b.map_or(0.0, |t| t.p50),
        batch_ms.len(),
    );
    m(
        "serve.engine.batch_ms.p99",
        "ms",
        b.map_or(0.0, |t| t.high),
        batch_ms.len(),
    );
    m(
        "serve.engine.batch_size.mean",
        "count",
        ratio(rows as f64, batch_ms.len() as f64),
        batch_ms.len(),
    );
    m(
        "serve.engine.batch_tenants.mean",
        "count",
        ratio(lookups, tenant_batches),
        tenant_batches as usize,
    );
    m(
        "serve.engine.busy_frac",
        "ratio",
        ratio(busy_ns as f64, length_ns as f64),
        batch_ms.len(),
    );
    m(
        "serve.engine.gflops",
        "GFLOP/s",
        ratio(rows as f64 * flops_per_row, batch_s * 1e9),
        batch_ms.len(),
    );
    m("serve.registry.lookups", "count", lookups, 1);
    m(
        "serve.registry.hit_ratio",
        "ratio",
        ratio(lookups - rehydrations, lookups),
        lookups as usize,
    );
    m("serve.registry.rehydrations", "count", rehydrations, 1);
    m(
        "serve.registry.evictions",
        "count",
        total(blocks, "registry.evictions"),
        1,
    );
    m(
        "serve.registry.resident_mb",
        "MiB",
        end.map_or(0.0, |e| e.resident_bytes as f64 / (1u64 << 20) as f64),
        end.map_or(0, |e| e.resident_tenants),
    );
    let (re, hit) = replay.map_or((Vec::new(), Vec::new()), |r| {
        (r.rehydrate_us.clone(), r.hit_us.clone())
    });
    m(
        "serve.registry.rehydrate_us.p50",
        "us",
        median(&re),
        re.len(),
    );
    m("serve.registry.hit_us.p50", "us", median(&hit), hit.len());
}

/// Every per-layer metric of one run. `replays` holds the registry replay
/// of each predict phase (traced run only); `flops_per_row` is the model's
/// forward FLOPs per input row.
pub fn per_layer(
    flops_per_row: f64,
    logs: &[PhaseLog],
    replays: &HashMap<&str, Replay>,
) -> Vec<Metric> {
    let mut out = Vec::new();
    for name in ["open", "sat"] {
        serve_layers(
            flops_per_row,
            name,
            &blocks(logs, name),
            replays.get(name),
            &mut out,
        );
    }
    let all: Vec<&PhaseLog> = logs.iter().collect();
    let sum = |key: &str| total(&all, key);
    let admin_ms: Vec<f64> = logs
        .iter()
        .flat_map(|l| l.calls.iter().filter(|c| c.predicts == 0))
        .map(|c| ms(c.end_ns - c.start_ns))
        .collect();
    out.push(Metric::new(
        "serve.engine.admin_ms.p50",
        "ms",
        median(&admin_ms),
        admin_ms.len(),
    ));
    for stage in [
        "predict",
        "split",
        "estimate_density",
        "pseudo_label",
        "fine_tune",
    ] {
        let (count, ns) = hist_total(&all, &format!("pipeline.stage_ns.{stage}"));
        out.push(Metric::new(
            format!("core.pipeline.{stage}_ms.mean"),
            "ms",
            ratio(ns, count) / 1e6,
            count as usize,
        ));
    }
    out.push(Metric::new(
        "core.uncertainty.mc_rows",
        "count",
        sum("mc_dropout.rows"),
        1,
    ));
    out.push(Metric::new(
        "core.guard.retries",
        "count",
        sum("guard.retries"),
        1,
    ));
    out.push(Metric::new(
        "core.guard.fallbacks",
        "count",
        sum("guard.fallbacks"),
        1,
    ));
    out.push(Metric::new(
        "nn.train.epochs",
        "count",
        sum("train.epochs"),
        1,
    ));
    out.push(Metric::new(
        "nn.backend.blocked_calls",
        "count",
        sum("backend.blocked_calls"),
        1,
    ));
    out.push(Metric::new(
        "nn.backend.naive_calls",
        "count",
        sum("backend.naive_calls"),
        1,
    ));
    let checkouts = sum("scratch.checkouts");
    out.push(Metric::new(
        "nn.scratch.reuse_ratio",
        "ratio",
        ratio(sum("scratch.reuses"), checkouts),
        checkouts as usize,
    ));
    out.push(Metric::new(
        "nn.parallel.chunks",
        "count",
        sum("pool.chunks_total"),
        1,
    ));
    out.push(Metric::new(
        "nn.parallel.inline_regions",
        "count",
        sum("pool.inline_regions"),
        1,
    ));
    let late: Vec<f64> = logs
        .iter()
        .filter(|l| l.name == "open")
        .flat_map(|l| l.ops.iter().map(|o| ms(o.late_ns)))
        .collect();
    let t = Timing::of(&late, 0.99);
    let mut m = Metric::new(
        "bench.gen.late_ms.p99",
        "ms",
        t.map_or(0.0, |t| t.high),
        late.len(),
    );
    m.flagged = t.is_none_or(|t| t.flagged());
    out.push(m);
    out
}

/// The measured property shares the workload records cite.
pub fn shares(logs: &[PhaseLog]) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for name in ["open", "sat"] {
        let b = blocks(logs, name);
        let (batches, lookups) = hist_total(&b, "serve.batch.tenants");
        let re = total(&b, "registry.rehydrations");
        out.insert(
            format!("{name}.serve.registry.hit_ratio"),
            ratio(lookups - re, lookups),
        );
        out.insert(
            format!("{name}.serve.engine.batch_tenants.mean"),
            ratio(lookups, batches),
        );
    }
    let outcomes: Vec<f64> = logs
        .iter()
        .flat_map(|l| l.done.iter())
        .filter_map(|d| match d.done {
            Done::Adapt(o) => Some(f64::from(u8::from(o == "fell_back"))),
            _ => None,
        })
        .collect();
    out.insert("adapt.fell_back_share".into(), mean(&outcomes));
    out
}

#[cfg(test)]
mod tests {
    use tasfar_nn::json::Json;

    /// `BENCHMARK.json` lists exactly the metrics a run reports.
    #[test]
    fn benchmark_json_matches_the_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names = |key: &str| -> Vec<(String, String)> {
            doc.field(key)
                .unwrap()
                .as_arr()
                .unwrap()
                .iter()
                .map(|m| {
                    let get = |k: &str| m.field(k).unwrap().as_str().unwrap().to_string();
                    (get("name"), get("unit"))
                })
                .collect()
        };
        let outside = super::Outside {
            setup_s: vec![1.0],
            err_ratio: 1.0,
            err_walkers: 1,
            peak_rss_mb: 1.0,
        };
        let e2e: Vec<(String, String)> = super::end_to_end(&[], &outside)
            .into_iter()
            .map(|m| (m.name, m.unit.to_string()))
            .collect();
        assert_eq!(names("end_to_end"), e2e);
        let workloads: Vec<(String, String)> = doc
            .field("workloads")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|w| {
                let get = |k: &str| w.field(k).unwrap().as_str().unwrap().to_string();
                (get("name"), get("why"))
            })
            .collect();
        let ours: Vec<(String, String)> = crate::WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(workloads, ours);
        let per_layer = names("per_layer");
        let reported: Vec<(String, String)> = super::per_layer(1.0, &[], &Default::default())
            .into_iter()
            .map(|m| (m.name, m.unit.to_string()))
            .collect();
        assert_eq!(per_layer, reported);
    }
}
