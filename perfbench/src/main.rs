//! Open-loop serve + adapt benchmark for the TASFAR workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_mlp_hot --seed 1 --seconds 20 --trace 0
//! ```
//!
//! One run sets a workload's fixture up, drives it through its measured
//! phases on one thread (see [`phase`]), checks every output, and
//! prints a report whose last line is one JSON object: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`. A
//! traced run measures the phases twice on fresh fixtures, untraced and then
//! traced, and reports the difference as the tracing overhead. Records of
//! each run land in `perfbench/out/`; `perfbench/README.md` defines every
//! metric.
//!
//! The three workloads (see [`WORKLOADS`]) share the phase shapes:
//!
//! - `open`: an open loop of Poisson arrivals at constant rates, at light
//!   load, timed from each scheduled arrival to the observed completion;
//! - `sat`: a closed loop that keeps the predict queue full, giving the
//!   serving capacity;
//! - `adapt`: adapts back to back on the idle worker (the serve workloads;
//!   `adapt_tcn_mixed` runs Poisson adapts inside `open`).
//!
//! Times are read from the benchmark thread's CPU clock and scaled to a reference
//! host speed (see [`clock`]). The compute pool is fixed at one thread, so
//! every kernel runs on that thread and its clock.

mod clock;
mod fixture;
mod gen;
mod phase;
mod report;
mod stats;
mod traced;

use std::collections::{BTreeMap, HashMap};

use tasfar_nn::tensor::Tensor;
use tasfar_serve::hash_tensor_bits;

use fixture::{Fixture, Model, Spec, WalkerIds};
use gen::{adapt_order, adapt_stream, merge, predict_stream, Arrival, Op, SplitMix64};
use phase::{Done, PhaseLog};
use report::{Metric, Outside};

/// How a workload's adapts arrive.
pub enum Adapts {
    /// In a phase of their own, back to back on the otherwise idle worker,
    /// so their latency is the adapt's service time.
    BackToBack,
    /// As a Poisson stream at this constant rate (ops/s) inside the
    /// open-loop predict phase, so predicts queue behind them.
    Mixed(f64),
}

/// One workload: a fixture and its traffic.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub spec: Spec,
    /// Open-loop predict rate (requests/s), a constant.
    pub predict_rps: f64,
    pub adapts: Adapts,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "serve_mlp_hot",
        why: "GEMM-bound fused forward of a 2.1 MB MLP over 64 hot tenants that stay \
              resident: loads the compute backend and the engine, bypasses the registry's \
              cold path",
        spec: Spec {
            model: Model::Mlp,
            population: 64,
            zipf_s: 1.2,
            budget_bytes: 64 << 20,
            walker_ids: WalkerIds::Population,
            warmup_predicts: 2000,
        },
        predict_rps: 250.0,
        adapts: Adapts::BackToBack,
    },
    Workload {
        name: "serve_tcn_cold",
        why: "PDR TCN over 20k Zipf tenants with a 256 KiB resident budget: three lookups in \
              four rehydrate a JSON delta, and batches take the per-tenant fallback forward",
        spec: Spec {
            model: Model::Tcn,
            population: 20_000,
            zipf_s: 1.1,
            budget_bytes: 256 << 10,
            walker_ids: WalkerIds::ColdTail,
            warmup_predicts: 4000,
        },
        predict_rps: 1000.0,
        adapts: Adapts::BackToBack,
    },
    Workload {
        name: "adapt_tcn_mixed",
        why: "Poisson 64-window TASFAR adapts (pipeline stages, guard, training) among light \
              predicts on one worker, so predicts queue behind each adapt",
        spec: Spec {
            model: Model::Tcn,
            population: 20_000,
            zipf_s: 1.1,
            budget_bytes: 256 << 10,
            walker_ids: WalkerIds::Fresh,
            warmup_predicts: 4000,
        },
        predict_rps: 250.0,
        adapts: Adapts::Mixed(6.5),
    },
];

/// Re-served predicts per predict block in the bit-identity check.
const BIT_SAMPLE: usize = 10;
/// Cycles of phase blocks per run.
const CYCLES: usize = 5;
/// A tenant id never registered: serves the source model.
const SOURCE_TENANT: u64 = u64::MAX;
/// Set-ups timed per measurement run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Where runs leave their records and traces, relative to the repository
/// root the benchmark runs from.
const OUT_DIR: &str = "perfbench/out";

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 20.0f64, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or(format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => trace = value.parse::<u8>().map_err(|e| bad(&e))? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds {seconds}: must be in (0, 60]"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Runs the workload's phases on `fix` in [`CYCLES`] cycles, checking
/// outputs as it goes. Each cycle runs one block of every phase, so a slow
/// spell of the host lands in one block of each phase rather than in one
/// whole phase. The open-loop schedule is generated for the whole run and
/// cut into consecutive blocks.
fn run_phases(
    fix: &mut Fixture,
    wl: &Workload,
    seed: u64,
    seconds: f64,
    speed: &mut Speed,
    bad: &mut Vec<String>,
) -> Vec<PhaseLog> {
    let walkers = fix.walkers.len();
    let (open_s, sat_s, adapt_s) = match wl.adapts {
        Adapts::Mixed(_) => (0.8 * seconds, 0.2 * seconds, 0.0),
        Adapts::BackToBack => (0.5 * seconds, 0.2 * seconds, 0.3 * seconds),
    };
    let mut open = predict_stream(seed, wl.predict_rps, open_s, &fix.zipf, fix.pool.rows());
    if let Adapts::Mixed(rate) = wl.adapts {
        open = merge(open, adapt_stream(seed, rate, open_s, walkers));
    }
    // Back-to-back adapts walk every (walker, slice) pair once, in a seeded
    // order, across all cycles.
    let mut back_to_back = adapt_order(&mut SplitMix64::new(seed, 8), walkers, 2 * walkers)
        .into_iter()
        .map(|(walker, slice)| Op::Adapt { walker, slice });
    let k = CYCLES as f64;
    let mut logs = Vec::new();
    for c in 0..CYCLES {
        speed.sample();
        logs.push(phase::open_loop(
            fix,
            "open",
            &block(&open, c, open_s / k),
            open_s / k,
        ));
        check_bits(fix, logs.last().unwrap(), bad);
        speed.sample();
        logs.push(phase::saturate(
            fix,
            "sat",
            seed ^ ((c as u64) << 32),
            sat_s / k,
        ));
        check_bits(fix, logs.last().unwrap(), bad);
        if adapt_s > 0.0 {
            speed.sample();
            logs.push(phase::back_to_back(
                fix,
                "adapt",
                &mut back_to_back,
                adapt_s / k,
            ));
        }
    }
    for log in &logs {
        check_completions(log, bad);
    }
    logs
}

/// Block `c` of a schedule cut into blocks `len_s` long, re-timed from the
/// block's start.
fn block(schedule: &[Arrival], c: usize, len_s: f64) -> Vec<Arrival> {
    let len_ns = (len_s * 1e9) as u64;
    let (lo, hi) = (c as u64 * len_ns, (c as u64 + 1) * len_ns);
    schedule
        .iter()
        .filter(|a| a.at_ns >= lo && (a.at_ns < hi || c + 1 == CYCLES))
        .map(|a| Arrival {
            at_ns: a.at_ns - lo,
            op: a.op,
        })
        .collect()
}

/// Every admitted op completes exactly once; predicts are finite and
/// shaped; adapts end in the guard's outcome vocabulary.
fn check_completions(log: &PhaseLog, bad: &mut Vec<String>) {
    let mut admitted: Vec<u64> = log.ops.iter().filter_map(|o| o.id).collect();
    let mut completed: Vec<u64> = log.done.iter().map(|d| d.id).collect();
    admitted.sort_unstable();
    completed.sort_unstable();
    if admitted != completed {
        bad.push(format!(
            "{}: {} ops admitted, {} completions, not one each",
            log.name,
            admitted.len(),
            completed.len()
        ));
    }
    for d in &log.done {
        match d.done {
            Done::Predict {
                shape_ok, finite, ..
            } if !(shape_ok && finite) => {
                bad.push(format!(
                    "{}: op {} output shape_ok={shape_ok} finite={finite}",
                    log.name, d.id
                ));
            }
            Done::Adapt(o) if !matches!(o, "adapted" | "recovered" | "fell_back") => {
                bad.push(format!("{}: adapt {} ended {o}", log.name, d.id));
            }
            _ => {}
        }
    }
}

/// Re-serves a fixed sample of fused predicts through `serve_solo` and
/// compares output bits and serving path. The deltas in force do not change
/// while predicts run (adapts rewrite only walker tenants, after the predict
/// phases or outside the predict population), so re-serving right after the
/// phase uses the delta each predict was served with.
fn check_bits(fix: &mut Fixture, log: &PhaseLog, bad: &mut Vec<String>) {
    let op_of = log.op_of();
    let predicts: Vec<_> = log
        .done
        .iter()
        .filter(|d| matches!(d.done, Done::Predict { .. }))
        .collect();
    let fused: Vec<_> = predicts
        .iter()
        .filter(|d| log.calls[d.call].predicts > 1)
        .copied()
        .collect();
    let sample = if fused.is_empty() { predicts } else { fused };
    let step = (sample.len() / BIT_SAMPLE).max(1);
    for d in sample.iter().step_by(step).take(BIT_SAMPLE) {
        let (Done::Predict { hash, via, .. }, Op::Predict { row, .. }) =
            (d.done, log.ops[op_of[&d.id]].op)
        else {
            continue;
        };
        let x = fixture::row(&fix.pool, row);
        let (out, solo_via) = fix.worker.serve_solo(d.tenant, &x);
        if hash_tensor_bits(&out) != hash || solo_via != via {
            bad.push(format!(
                "{}: predict {} for tenant {} differs from solo serving ({via:?} vs {solo_via:?})",
                log.name, d.id, d.tenant
            ));
        }
        fix.worker.recycle(out);
    }
}

fn mae(pred: &Tensor, y: &Tensor) -> f64 {
    let p = pred.as_slice();
    p.iter()
        .zip(y.as_slice())
        .map(|(a, b)| (a - b).abs())
        .sum::<f64>()
        / p.len() as f64
}

/// Mean over adapted walkers of MAE(adapted delta) ÷ MAE(source) on each
/// walker's held-out rows, and how many walkers it covers.
fn err_ratio(fix: &mut Fixture, logs: &[PhaseLog]) -> (f64, usize) {
    let mut adapted: Vec<u64> = logs
        .iter()
        .flat_map(|l| l.done.iter())
        .filter(|d| matches!(d.done, Done::Adapt(_)))
        .map(|d| d.tenant)
        .collect();
    adapted.sort_unstable();
    adapted.dedup();
    let mut ratios = Vec::new();
    for walker in &fix.walkers {
        if adapted.binary_search(&walker.tenant).is_err() {
            continue;
        }
        let (with_delta, _) = fix.worker.serve_solo(walker.tenant, &walker.heldout_x);
        let (source, _) = fix.worker.serve_solo(SOURCE_TENANT, &walker.heldout_x);
        ratios.push(mae(&with_delta, &walker.heldout_y) / mae(&source, &walker.heldout_y));
    }
    (stats::mean(&ratios), ratios.len())
}

/// `VmHWM` of this process, MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// How fast the host ran during this process: reference bursts
/// ([`clock::Reference`]) taken before each set-up after the first and
/// before each phase block.
struct Speed {
    reference: clock::Reference,
    bursts_ns: Vec<f64>,
}

impl Speed {
    fn sample(&mut self) {
        let ns = self.reference.burst_ns();
        self.bursts_ns.push(ns as f64);
    }

    /// The factor that takes this process's times to the reference speed.
    fn factor(&self) -> f64 {
        clock::NOMINAL_BURST_NS / stats::median(&self.bursts_ns)
    }

    fn report(&self) {
        println!(
            "host speed: reference burst median {:.3} ms over {} bursts (nominal {:.3} ms); \
             times are scaled by {:.4}, rates by its inverse",
            stats::median(&self.bursts_ns) / 1e6,
            self.bursts_ns.len(),
            clock::NOMINAL_BURST_NS / 1e6,
            self.factor()
        );
    }
}

/// CPU seconds one set-up takes, and its fixture.
fn timed_setup(spec: fixture::Spec, speed: &mut Speed) -> (f64, Fixture) {
    speed.sample();
    let t0 = clock::thread_ns();
    let fix = fixture::build(spec);
    ((clock::thread_ns() - t0) as f64 / 1e9, fix)
}

/// One pass: set up, run the phases, evaluate. Returns the fixture (for the
/// traced run's replay), the logs, and the end-to-end inputs. The first
/// pass of a process times its set-up from process start.
fn pass(
    args: &Args,
    first: bool,
    speed: &mut Speed,
    bad: &mut Vec<String>,
) -> (Fixture, Vec<PhaseLog>, Outside) {
    let (setup, mut fix) = if first {
        let fix = fixture::build(args.workload.spec);
        (clock::process_ns() as f64 / 1e9, fix)
    } else {
        timed_setup(args.workload.spec, speed)
    };
    let (steal0, total0) = cpu_ticks();
    let logs = run_phases(&mut fix, args.workload, args.seed, args.seconds, speed, bad);
    let (steal1, total1) = cpu_ticks();
    println!(
        "host: {:.1}% of CPU time stolen by the hypervisor during the phases",
        100.0 * (steal1 - steal0) as f64 / (total1 - total0).max(1) as f64
    );
    let (err_ratio, err_walkers) = err_ratio(&mut fix, &logs);
    let outside = Outside {
        setup_s: vec![setup],
        err_ratio,
        err_walkers,
        peak_rss_mb: peak_rss_mb(),
    };
    (fix, logs, outside)
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        println!(
            "  {:<44} {:>14.6} {:<8} n={}{}",
            m.name,
            m.value,
            m.unit,
            m.n,
            if m.flagged {
                "  [fewer than 10 samples beyond this percentile]"
            } else {
                ""
            }
        );
    }
}

fn print_phases(logs: &[PhaseLog]) {
    for name in ["open", "sat", "adapt"] {
        let blocks: Vec<&PhaseLog> = logs.iter().filter(|l| l.name == name).collect();
        if blocks.is_empty() {
            continue;
        }
        let count = |f: &dyn Fn(&PhaseLog) -> usize| blocks.iter().map(|l| f(l)).sum::<usize>();
        let late: Vec<f64> = blocks
            .iter()
            .flat_map(|l| l.ops.iter().map(|o| o.late_ns as f64 / 1e6))
            .collect();
        let late = stats::Timing::of(&late, 0.99).map_or(0.0, |t| t.high);
        println!(
            "phase {name:<5} {:<9} {} blocks {:>6.2} s  ops {:>6} (adapts {:>3})  completions {:>6}  calls {:>6}  generator late p99 {late:.3} ms",
            if name == "open" { "open-loop" } else { "closed" },
            blocks.len(),
            blocks.iter().map(|l| l.length_ns as f64 / 1e9).sum::<f64>(),
            count(&|l| l.ops.len()),
            count(&|l| l.ops.iter().filter(|o| matches!(o.op, Op::Adapt { .. })).count()),
            count(&|l| l.done.len()),
            count(&|l| l.calls.len()),
        );
    }
}

/// Cumulative steal and total CPU time of the host, from `/proc/stat`
/// (zeros where it is unreadable).
fn cpu_ticks() -> (u64, u64) {
    let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = text
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

fn json_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Writes the run's metrics, with sample counts, and its measured shares to
/// `perfbench/out/<workload>-seed<n>-trace<t>.json`.
fn record(args: &Args, metrics: &[Metric], shares: &BTreeMap<String, f64>) {
    if std::fs::create_dir_all(OUT_DIR).is_err() {
        return;
    }
    let mut doc: BTreeMap<String, String> = BTreeMap::new();
    for m in metrics {
        doc.insert(
            m.name.clone(),
            format!(
                "{{\"value\": {}, \"unit\": \"{}\", \"n\": {}}}",
                m.value, m.unit, m.n
            ),
        );
    }
    for (k, v) in shares {
        doc.insert(k.clone(), format!("{v}"));
    }
    let body: Vec<String> = doc.iter().map(|(k, v)| format!("  \"{k}\": {v}")).collect();
    let path = format!(
        "{OUT_DIR}/{}-seed{}-trace{}.json",
        args.workload.name,
        args.seed,
        u8::from(args.trace)
    );
    let _ = std::fs::write(path, format!("{{\n{}\n}}\n", body.join(",\n")));
}

/// A measurement run: the end-to-end metrics of the pass, with `setup_s`
/// the median of [`SETUPS`] set-ups, scaled to the reference speed.
fn measure(
    spec: Spec,
    fix: Fixture,
    logs: &[PhaseLog],
    mut outside: Outside,
    speed: &mut Speed,
) -> Vec<Metric> {
    drop(fix);
    for _ in 1..SETUPS {
        outside.setup_s.push(timed_setup(spec, speed).0);
    }
    let mut e2e = report::end_to_end(logs, &outside);
    print_metrics("end-to-end, raw (CPU clock):", &e2e);
    speed.report();
    report::scale(&mut e2e, speed.factor());
    print_metrics("end-to-end, at the reference speed:", &e2e);
    e2e
}

/// A traced run: a second pass on a fresh fixture with tracing on, whose
/// per-layer metrics are reported, with the end-to-end difference from the
/// untraced pass as the tracing overhead.
fn trace(
    args: &Args,
    mut untraced: Vec<Metric>,
    speed: &mut Speed,
    bad: &mut Vec<String>,
) -> (Vec<Metric>, Vec<PhaseLog>, Fixture) {
    let path = format!("{OUT_DIR}/trace-{}.jsonl", args.workload.name);
    if let Err(e) = std::fs::create_dir_all(OUT_DIR).and_then(|()| tasfar_obs::trace_to_file(&path))
    {
        eprintln!("perfbench: cannot trace to {path}: {e}");
        std::process::exit(1);
    }
    let (fix, logs, outside) = pass(args, false, speed, bad);
    tasfar_obs::disable();
    speed.report();
    let mut traced = report::end_to_end(&logs, &outside);
    report::scale(&mut traced, speed.factor());
    report::scale(&mut untraced, speed.factor());
    println!("tracing overhead (traced − untraced, one pass each, at the reference speed):");
    for (u, t) in untraced.iter().zip(traced) {
        println!(
            "  {:<44} {:>14.6} {:<6} ({:+.1}%)",
            u.name,
            t.value - u.value,
            u.unit,
            100.0 * (t.value - u.value) / u.value
        );
    }
    match traced::self_times(&path) {
        Ok(rows) => {
            println!("span self times (traced pass):");
            println!(
                "  {:<28} {:>8} {:>12} {:>12}",
                "span", "calls", "total ms", "self ms"
            );
            for r in rows.iter().take(24) {
                println!(
                    "  {:<28} {:>8} {:>12.3} {:>12.3}",
                    r.name, r.calls, r.total_ms, r.self_ms
                );
            }
        }
        Err(e) => bad.push(format!("trace: {e}")),
    }
    let mut replays = HashMap::new();
    for name in ["open", "sat"] {
        let order: Vec<u64> = logs
            .iter()
            .filter(|l| l.name == name)
            .flat_map(|l| l.lookup_order())
            .collect();
        replays.insert(name, traced::replay(&fix, &order));
    }
    let mut layers = report::per_layer(fix.flops_per_row, &logs, &replays);
    report::scale(&mut layers, speed.factor());
    print_metrics("per-layer (traced pass, at the reference speed):", &layers);
    (layers, logs, fix)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.map(|w| w.name).join("|")
            );
            std::process::exit(2);
        }
    };
    tasfar_obs::disable();
    tasfar_nn::parallel::set_threads(1);
    let wl = args.workload;
    println!(
        "workload {} seed {} seconds {} trace {} | host cpus {}, compute threads {}",
        wl.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        tasfar_obs::host_cpus(),
        tasfar_nn::parallel::current_threads()
    );
    println!("why: {}", wl.why);

    let mut bad = Vec::new();
    let mut speed = Speed {
        reference: clock::Reference::new(),
        bursts_ns: Vec::new(),
    };
    let (fix, logs, outside) = pass(&args, true, &mut speed, &mut bad);
    let (metrics, logs, segmented) = if args.trace {
        let untraced = report::end_to_end(&logs, &outside);
        drop((fix, logs));
        let (layers, logs, fix) = trace(&args, untraced, &mut speed, &mut bad);
        (layers, logs, fix.worker.is_segmented())
    } else {
        let segmented = fix.worker.is_segmented();
        (
            measure(wl.spec, fix, &logs, outside, &mut speed),
            logs,
            segmented,
        )
    };
    print_phases(&logs);
    let failures = report::failures(&logs);
    println!(
        "failed_frac {:.6} ratio n={} (rejected {}, never completed {}, fell back {})",
        failures.failed() as f64 / failures.attempted.max(1) as f64,
        failures.attempted,
        failures.rejected,
        failures.lost,
        failures.fell_back
    );
    let mut shares = report::shares(&logs);
    shares.insert("is_segmented".into(), f64::from(u8::from(segmented)));
    println!(
        "shares: {}",
        shares
            .iter()
            .map(|(k, v)| format!("{k}={v:.4}"))
            .collect::<Vec<_>>()
            .join(", ")
    );
    record(&args, &metrics, &shares);
    let correct = bad.is_empty();
    for b in &bad {
        println!("CHECK FAILED: {b}");
    }
    println!("checks: {}", if correct { "all passed" } else { "FAILED" });
    println!(
        "{}",
        json_line(correct, failures.attempted, failures.failed(), &metrics)
    );
    if !correct {
        std::process::exit(1);
    }
}
