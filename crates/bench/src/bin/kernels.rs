//! Dependency-free micro-benchmarks of the TASFAR hot-path kernels.
//!
//! Replaces the former Criterion benches (the build environment has no
//! crates.io access). Each kernel is timed with a warmup phase followed by
//! `TASFAR_BENCH_SAMPLES` (default 9) timed samples; the reported figure is
//! the best (minimum) ns/iteration — the least-perturbed estimate on a
//! shared host — alongside the total wall time spent in the timed samples
//! and the warmup iteration count.
//!
//! Two grid dimensions beyond kernel/size:
//!
//! * **backend** — the GEMM-family and convolution kernels time both
//!   compute backends (`CpuNaive` and `CpuBlocked`, see `tasfar_nn::backend`)
//!   called through the `Backend` trait on the same buffers, so the result
//!   file records the head-to-head on every shape. The remaining, layer-level
//!   kernels run on the one dispatched backend (`blocked`). Blocked rows
//!   carry `speedup_vs_naive`, and the binary self-asserts that `blocked`
//!   beats `naive` on the largest matmul (1.1× floor), on a one-row
//!   `1x512x512` predict (1.3×) and on the TCN's dominant conv (1.5×) —
//!   generous floors, so CI noise doesn't flake; the recorded figures are
//!   the real speedups.
//! * **threads** — every kernel runs with the parallel runtime pinned to 1
//!   thread and, on multi-CPU hosts, again at 4 threads with the row
//!   carrying its speedup over the 1-thread baseline. On a single-CPU host
//!   the >1-thread grid is skipped (it measures scheduling overhead, not
//!   scaling) except for one sentinel row tagged `thread_scaling_na`, kept
//!   so the schema's thread dimension stays stable.
//!
//! The binary also audits the zero-allocation contract: a counting global
//! allocator measures heap allocations across steady-state `train_step` +
//! fused MC-dropout iterations (expected: 0 at one thread) and reports them
//! as the `alloc.hot_path` gauge, next to the scratch-arena counters.
//!
//! Run with: `cargo run --release -p tasfar-bench --bin kernels`
//!
//! Results are written to `BENCH_kernels.json` in the working directory
//! (git-tracked at the repo root) or to `TASFAR_BENCH_OUT` when set,
//! including the host's CPU count — the speedups are only meaningful
//! relative to it. Always run from the repo root: `.cargo/config.toml`
//! (with `target-cpu=native`) is discovered from the working directory, and
//! a build without it benches baseline-ISA kernels.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Instant;
use tasfar_core::density::{DensityMap1d, GridSpec};
use tasfar_core::uncertainty::{McDropout, McPrediction};
use tasfar_nn::backend::{Backend, Conv1dGeometry, CpuBlocked, CpuNaive, TilingScheme};
use tasfar_nn::json::Json;
use tasfar_nn::layers::{Dense, Dropout, Layer, Mode, Relu, Sequential, TcnBlock};
use tasfar_nn::parallel;
use tasfar_nn::prelude::{train_step, Adam, Init, Mse, Scratch};
use tasfar_nn::rng::Rng;
use tasfar_nn::tensor::Tensor;

/// Counts heap acquisitions (`alloc` + `realloc`) on this thread, for the
/// hot-path allocation audit. Deallocations are not counted.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn alloc_count() -> u64 {
    ALLOCS.with(|c| c.get())
}

/// The two backends of the head-to-head rows, timed through the trait.
const NAIVE: &dyn Backend = &CpuNaive;
/// The backend every layer-level kernel call dispatches to.
const BLOCKED: &dyn Backend = &CpuBlocked::with_tiling(TilingScheme::DEFAULT);

/// One benchmark result row.
struct Row {
    kernel: &'static str,
    size: String,
    /// Compute backend the kernel ran on (`naive` or `blocked`).
    backend: &'static str,
    threads: usize,
    ns_per_iter: f64,
    /// Median ns/call across the timed samples (nearest rank).
    ns_per_iter_p50: f64,
    /// 90th-percentile ns/call across the timed samples (nearest rank).
    ns_per_iter_p90: f64,
    /// Total wall time across the timed samples, nanoseconds.
    wall_ns_total: f64,
    /// Untimed iterations run before sampling started.
    warmup_iters: usize,
}

/// Per-iteration timing distribution over the samples of one bench point.
struct Timing {
    /// Minimum ns/call — the headline figure (see below).
    best: f64,
    /// Median ns/call: how the kernel typically behaves, noise included.
    p50: f64,
    /// 90th-percentile ns/call: the noisy tail, for jitter tracking.
    p90: f64,
    /// Total wall time across the timed samples, nanoseconds.
    total: f64,
}

/// Times `f` (already warmed up) over `samples` samples of `iters` calls
/// each and returns the per-iteration distribution.
///
/// The headline is the minimum, not the median: on a shared host the samples
/// are the true cost plus non-negative scheduler/frequency noise, so the
/// smallest sample is the least-perturbed estimate and the only one that
/// compares two kernels fairly when load fluctuates between their runs. The
/// p50/p90 figures ride along so the watchdog can distinguish a genuinely
/// slower kernel from a noisier host.
fn time_best(samples: usize, iters: usize, mut f: impl FnMut()) -> Timing {
    let mut total = 0.0f64;
    let mut per_iter: Vec<f64> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            let ns = t0.elapsed().as_nanos() as f64;
            total += ns;
            ns / iters as f64
        })
        .collect();
    per_iter.sort_by(f64::total_cmp);
    // Nearest-rank percentile over the sorted samples.
    let rank = |q: f64| per_iter[((q * samples as f64).ceil() as usize).clamp(1, samples) - 1];
    Timing {
        best: per_iter[0],
        p50: rank(0.50),
        p90: rank(0.90),
        total,
    }
}

#[allow(clippy::too_many_arguments)]
fn bench(
    rows: &mut Vec<Row>,
    kernel: &'static str,
    size: &str,
    backend: &'static str,
    threads: usize,
    samples: usize,
    iters: usize,
    mut f: impl FnMut(),
) {
    parallel::set_threads(threads);
    // Warmup: one sample's worth, untimed.
    for _ in 0..iters {
        f();
    }
    let timing = time_best(samples, iters, &mut f);
    println!(
        "{kernel:>16} {size:<14} {backend:<8} threads={threads}  {:>12.0} ns/iter (p50 {:.0})",
        timing.best, timing.p50
    );
    rows.push(Row {
        kernel,
        size: size.to_string(),
        backend,
        threads,
        ns_per_iter: timing.best,
        ns_per_iter_p50: timing.p50,
        ns_per_iter_p90: timing.p90,
        wall_ns_total: timing.total,
        warmup_iters: iters,
    });
}

fn mc_model(rng: &mut Rng) -> Sequential {
    Sequential::new()
        .add(Dense::new(8, 64, Init::HeNormal, rng))
        .add(Relu::new())
        .add(Dropout::new(0.2, rng))
        .add(Dense::new(64, 64, Init::HeNormal, rng))
        .add(Relu::new())
        .add(Dropout::new(0.2, rng))
        .add(Dense::new(64, 1, Init::XavierUniform, rng))
}

fn main() {
    let samples: usize = std::env::var("TASFAR_BENCH_SAMPLES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(9);
    let quick = std::env::var("TASFAR_BENCH_QUICK").is_ok();
    // `available_parallelism` respects cgroup/affinity limits and reports 1
    // in constrained containers; `host_cpus` cross-checks /proc/cpuinfo so
    // the recorded figure matches the hardware the speedups ran on.
    let cpus = tasfar_obs::host_cpus();
    println!(
        "host cpus: {cpus}; samples per point: {samples}{}",
        if quick { " (quick)" } else { "" }
    );

    let mut rng = Rng::new(0x8E2C);
    let mut rows: Vec<Row> = Vec::new();
    // On a single-CPU host only 1-thread rows carry signal; a lone sentinel
    // >1-thread row (added below) keeps the schema's thread dimension alive.
    let thread_counts: Vec<usize> = if cpus == 1 { vec![1] } else { vec![1, 4] };
    let backends = [NAIVE, BLOCKED];

    // --- matmul m×k×n ----------------------------------------------------
    // A reused output isolates the kernel itself: a fresh allocation per
    // call would add identical page-fault overhead to both backends and
    // wash out the head-to-head.
    for &n in &[32usize, 128, 256] {
        let a = Tensor::rand_normal(n, n, 0.0, 1.0, &mut rng);
        let b = Tensor::rand_normal(n, n, 0.0, 1.0, &mut rng);
        let mut out = Tensor::zeros(n, n);
        let iters = if quick {
            1
        } else {
            ((256 / n).max(1) * (256 / n).max(1)).max(4)
        };
        let (a, b) = (a.as_slice(), b.as_slice());
        let out = out.as_mut_slice();
        for bk in backends {
            for &t in &thread_counts {
                bench(
                    &mut rows,
                    "matmul",
                    &format!("{n}x{n}x{n}"),
                    bk.name(),
                    t,
                    samples,
                    iters,
                    || {
                        bk.matmul_into(n, n, n, a, b, out);
                        std::hint::black_box(&*out);
                    },
                );
            }
        }
        if n == 256 && cpus == 1 {
            // The sentinel: one >1-thread row so single-CPU result files keep
            // the `thread_scaling_na` tag and thread dimension in the schema.
            bench(
                &mut rows,
                "matmul",
                "256x256x256",
                BLOCKED.name(),
                4,
                samples,
                iters,
                || {
                    BLOCKED.matmul_into(n, n, n, a, b, out);
                    std::hint::black_box(&*out);
                },
            );
        }
    }

    // --- transposed matmul variants --------------------------------------
    // The training loop's gradient products: `t_matmul` is xᵀ·dy (dW) and
    // `matmul_t` is dy·Wᵀ (dx). Benched at the largest size only — the
    // small shapes are covered by train_step below.
    {
        let n = 256;
        let a = Tensor::rand_normal(n, n, 0.0, 1.0, &mut rng);
        let b = Tensor::rand_normal(n, n, 0.0, 1.0, &mut rng);
        let mut out = Tensor::zeros(n, n);
        let (a, b) = (a.as_slice(), b.as_slice());
        let out = out.as_mut_slice();
        let iters = if quick { 1 } else { 4 };
        for bk in backends {
            for &t in &thread_counts {
                bench(
                    &mut rows,
                    "t_matmul",
                    "256x256x256",
                    bk.name(),
                    t,
                    samples,
                    iters,
                    || {
                        bk.t_matmul_into(n, n, n, a, b, out);
                        std::hint::black_box(&*out);
                    },
                );
            }
        }
        for bk in backends {
            for &t in &thread_counts {
                bench(
                    &mut rows,
                    "matmul_t",
                    "256x256x256",
                    bk.name(),
                    t,
                    samples,
                    iters,
                    || {
                        bk.matmul_t_into(n, n, n, a, b, out);
                        std::hint::black_box(&*out);
                    },
                );
            }
        }
    }

    // --- thin products ----------------------------------------------------
    // The shapes the blocked backend runs without packing because no full
    // register tile would reuse a panel: a one-row and a four-row predict
    // through the serving MLP's 512×512 layer, the four-row weight gradient
    // and one-row input gradient of the same layer, and the one-column head
    // over a 2048-row MC-dropout stack. `a` holds `m·k` values and `b`
    // `k·n`, read in whichever layout the variant takes.
    for (kernel, m, k, n) in [
        ("matmul", 1, 512, 512),
        ("matmul", 4, 512, 512),
        ("t_matmul", 4, 512, 512),
        ("matmul_t", 1, 512, 512),
        ("matmul", 2048, 512, 1),
    ] {
        let a = Tensor::rand_normal(m, k, 0.0, 1.0, &mut rng);
        let b = Tensor::rand_normal(k, n, 0.0, 1.0, &mut rng);
        let mut out = Tensor::zeros(m, n);
        let (a, b) = (a.as_slice(), b.as_slice());
        let out = out.as_mut_slice();
        let iters = if quick { 1 } else { 16 };
        for bk in backends {
            for &t in &thread_counts {
                bench(
                    &mut rows,
                    kernel,
                    &format!("{m}x{k}x{n}"),
                    bk.name(),
                    t,
                    samples,
                    iters,
                    || {
                        match kernel {
                            "matmul" => bk.matmul_into(m, k, n, a, b, out),
                            "t_matmul" => bk.t_matmul_into(m, k, n, a, b, out),
                            _ => bk.matmul_t_into(m, k, n, a, b, out),
                        }
                        std::hint::black_box(&*out);
                    },
                );
            }
        }
    }

    // --- conv1d forward / backward --------------------------------------
    // The PDR TCN's convolutions: block 1's 6→16 k3 conv, block 2's 16→16
    // k3 d2 conv (three of the five convs are 16→16 k3 and dominate the
    // TCN's time), block 1's 1×1 downsample, and the 16→16 conv again on a
    // 2-row serving segment. Each call zeroes its output first, as the
    // kernel contract asks of the caller; `dw`/`db` accumulate.
    for (size, in_ch, out_ch, kernel, dilation, batch) in [
        ("6->16 k3 t20 b64", 6, 16, 3, 1, 64),
        ("16->16 k3 d2 t20 b64", 16, 16, 3, 2, 64),
        ("6->16 k1 t20 b64", 6, 16, 1, 1, 64),
        ("16->16 k3 d2 t20 b2", 16, 16, 3, 2, 2),
    ] {
        let geo = Conv1dGeometry {
            in_ch,
            out_ch,
            kernel,
            dilation,
            time_len: 20,
        };
        let w = Tensor::rand_normal(out_ch, in_ch * kernel, 0.0, 0.3, &mut rng);
        let bias = Tensor::rand_normal(1, out_ch, 0.0, 0.1, &mut rng);
        let x = Tensor::rand_normal(batch, geo.input_width(), 0.0, 1.0, &mut rng);
        let g = Tensor::rand_normal(batch, geo.output_width(), 0.0, 1.0, &mut rng);
        let mut y = Tensor::zeros(batch, geo.output_width());
        let mut dx = Tensor::zeros(batch, geo.input_width());
        let mut dw = vec![0.0; geo.weight_len()];
        let mut db = vec![0.0; out_ch];
        let mut scratch = Scratch::new();
        let (w, bias) = (w.as_slice(), bias.as_slice());
        let iters = if quick { 1 } else { 512 / batch };
        for bk in backends {
            for &t in &thread_counts {
                bench(
                    &mut rows,
                    "conv1d_fwd",
                    size,
                    bk.name(),
                    t,
                    samples,
                    iters,
                    || {
                        y.as_mut_slice().fill(0.0);
                        bk.conv1d_forward(&geo, &x, w, bias, &mut y);
                        std::hint::black_box(&y);
                    },
                );
            }
        }
        for bk in backends {
            for &t in &thread_counts {
                bench(
                    &mut rows,
                    "conv1d_bwd",
                    size,
                    bk.name(),
                    t,
                    samples,
                    iters,
                    || {
                        dx.as_mut_slice().fill(0.0);
                        bk.conv1d_backward(
                            &geo,
                            &x,
                            &g,
                            w,
                            &mut dw,
                            &mut db,
                            &mut dx,
                            &mut scratch,
                        );
                        std::hint::black_box(&dx);
                    },
                );
            }
        }
    }

    // --- TCN block forward ----------------------------------------------
    {
        let mut block = TcnBlock::new(6, 16, 3, 2, 20, 0.1, &mut rng);
        let x = Tensor::rand_normal(64, 6 * 20, 0.0, 1.0, &mut rng);
        let iters = if quick { 1 } else { 4 };
        for &t in &thread_counts {
            bench(
                &mut rows,
                "tcn_fwd",
                "6->16 k3 d2 t20",
                BLOCKED.name(),
                t,
                samples,
                iters,
                || {
                    std::hint::black_box(block.forward(&x, Mode::Eval));
                },
            );
        }
    }

    // --- MC-dropout (T = 20), per-pass vs fused ---------------------------
    // `mc_dropout` is the reference per-pass estimator; `mc_dropout_fused`
    // runs the same 20 passes as one stacked batched forward into a reused
    // out-parameter (the production path behind `McDropout::predict`). The
    // two are bit-identical (pinned by `tasfar-core/tests/fused_mc.rs`), so
    // the gap between the rows is pure overhead removed.
    {
        let x = Tensor::rand_normal(128, 8, 0.0, 1.0, &mut rng);
        let iters = if quick { 1 } else { 2 };
        for &t in &thread_counts {
            let mut model = mc_model(&mut Rng::new(7));
            bench(
                &mut rows,
                "mc_dropout",
                "T=20 b128 mlp64",
                BLOCKED.name(),
                t,
                samples,
                iters,
                || {
                    std::hint::black_box(McDropout::new(20).predict_unfused(&mut model, &x));
                },
            );
        }
        for &t in &thread_counts {
            let mut model = mc_model(&mut Rng::new(7));
            let est = McDropout::new(20);
            let mut out = McPrediction::empty();
            bench(
                &mut rows,
                "mc_dropout_fused",
                "T=20 b128 mlp64",
                BLOCKED.name(),
                t,
                samples,
                iters,
                || {
                    est.predict_into(&mut model, &x, &mut out);
                    std::hint::black_box(&mut out);
                },
            );
        }
    }

    // --- one full training step ------------------------------------------
    {
        let iters = if quick { 1 } else { 4 };
        for &t in &thread_counts {
            let mut step_rng = Rng::new(11);
            let mut model = mc_model(&mut step_rng);
            let mut opt = Adam::new(1e-4);
            let x = Tensor::rand_normal(128, 8, 0.0, 1.0, &mut step_rng);
            let y = Tensor::rand_normal(128, 1, 0.0, 1.0, &mut step_rng);
            let mut scratch = Scratch::new();
            bench(
                &mut rows,
                "train_step",
                "b128 mlp64",
                BLOCKED.name(),
                t,
                samples,
                iters,
                || {
                    let loss = train_step(
                        &mut model,
                        &mut opt,
                        &Mse,
                        &x,
                        &y,
                        None,
                        Mode::Train,
                        0,
                        &mut scratch,
                    )
                    .expect("bench train_step");
                    std::hint::black_box(loss);
                },
            );
        }
    }

    // --- KDE density estimation ------------------------------------------
    {
        let preds: Vec<f64> = (0..512).map(|_| rng.gaussian(0.0, 2.0)).collect();
        let sigmas: Vec<f64> = (0..512).map(|_| rng.uniform(0.05, 0.4)).collect();
        let iters = if quick { 1 } else { 4 };
        for &t in &thread_counts {
            bench(
                &mut rows,
                "density_1d",
                "n512 cell0.05",
                BLOCKED.name(),
                t,
                samples,
                iters,
                || {
                    let spec = GridSpec::from_range(-10.0, 10.0, 0.05);
                    std::hint::black_box(DensityMap1d::estimate(
                        &preds,
                        &sigmas,
                        spec,
                        tasfar_core::calibration::ErrorModel::Gaussian,
                    ));
                },
            );
        }
    }

    // --- hot-path allocation audit ----------------------------------------
    // With the arena warm and one thread pinned, steady-state train_step and
    // fused MC-dropout iterations must not touch the heap. The same contract
    // is enforced test-side by the `alloc_audit` suites; here it is recorded
    // into the result file as provenance for the numbers above.
    let hot_path_allocs = {
        parallel::set_threads(1);
        let mut audit_rng = Rng::new(13);
        let mut model = mc_model(&mut audit_rng);
        let mut opt = Adam::new(1e-4);
        let x = Tensor::rand_normal(64, 8, 0.0, 1.0, &mut audit_rng);
        let y = Tensor::rand_normal(64, 1, 0.0, 1.0, &mut audit_rng);
        let mut scratch = Scratch::new();
        let est = McDropout::new(20);
        let mut out = McPrediction::empty();
        for _ in 0..3 {
            train_step(
                &mut model,
                &mut opt,
                &Mse,
                &x,
                &y,
                None,
                Mode::Train,
                0,
                &mut scratch,
            )
            .expect("audit train_step");
            est.predict_into(&mut model, &x, &mut out);
        }
        let before = alloc_count();
        for _ in 0..5 {
            train_step(
                &mut model,
                &mut opt,
                &Mse,
                &x,
                &y,
                None,
                Mode::Train,
                0,
                &mut scratch,
            )
            .expect("audit train_step");
            est.predict_into(&mut model, &x, &mut out);
        }
        let allocs = alloc_count() - before;
        println!("hot-path allocations over 5 steady-state iterations: {allocs}");
        tasfar_obs::metrics::gauge("alloc.hot_path").set(allocs as i64);
        allocs
    };

    parallel::reset_threads();

    // --- span guard off-state overhead ------------------------------------
    // The telemetry contract says an untraced `span()` costs one atomic
    // load; hold it to a 50 ns/op budget in release builds. Skipped when
    // `TASFAR_TRACE` is live — an enabled span legitimately pays for I/O.
    if !tasfar_obs::enabled() {
        let iters = if quick { 10_000 } else { 1_000_000 };
        for _ in 0..iters {
            std::hint::black_box(tasfar_obs::span("bench.noop"));
        }
        let timing = time_best(samples, iters, || {
            std::hint::black_box(tasfar_obs::span("bench.noop"));
        });
        let ns = timing.best;
        println!(
            "{:>16} {:<14} threads=1  {ns:>12.1} ns/iter",
            "span_off", "disabled"
        );
        rows.push(Row {
            kernel: "span_off",
            size: "disabled".to_string(),
            backend: BLOCKED.name(),
            threads: 1,
            ns_per_iter: timing.best,
            ns_per_iter_p50: timing.p50,
            ns_per_iter_p90: timing.p90,
            wall_ns_total: timing.total,
            warmup_iters: iters,
        });
        assert!(
            cfg!(debug_assertions) || ns < 50.0,
            "span guard off-state overhead {ns:.1} ns/op exceeds the 50 ns budget"
        );
    }

    // --- self-checks -------------------------------------------------------
    // The fused MC path exists to be faster than the per-pass one on the
    // same host in the same run; regressing that is a bench failure, not a
    // number to record. (Debug builds are exempt: they measure the
    // allocator, not the kernels.)
    let ns_of = |kernel: &str| {
        rows.iter()
            .find(|r| r.kernel == kernel && r.threads == 1)
            .map(|r| r.ns_per_iter)
            .expect("kernel row missing")
    };
    let (unfused, fused) = (ns_of("mc_dropout"), ns_of("mc_dropout_fused"));
    println!(
        "mc_dropout fused speedup at 1 thread: {:.2}x",
        unfused / fused
    );
    assert!(
        cfg!(debug_assertions) || fused < unfused,
        "fused MC-dropout ({fused:.0} ns) must beat the per-pass path ({unfused:.0} ns)"
    );
    assert!(
        cfg!(debug_assertions) || hot_path_allocs == 0,
        "steady-state hot path performed {hot_path_allocs} heap allocations"
    );
    // The blocked backend exists to be faster than naive where blocking
    // pays; the largest matmul is its home turf. 1.1× is a deliberately
    // generous floor (the recorded speedup should be well above it) so a
    // noisy quick-mode CI run doesn't flake.
    let backend_ns_of = |kernel: &str, size: &str, bk: &str| {
        rows.iter()
            .find(|r| r.kernel == kernel && r.size == size && r.backend == bk && r.threads == 1)
            .map(|r| r.ns_per_iter)
            .expect("backend row missing")
    };
    let naive_mm = backend_ns_of("matmul", "256x256x256", "naive");
    let blocked_mm = backend_ns_of("matmul", "256x256x256", "blocked");
    println!(
        "matmul 256x256x256 blocked speedup vs naive at 1 thread: {:.2}x",
        naive_mm / blocked_mm
    );
    assert!(
        cfg!(debug_assertions) || naive_mm / blocked_mm >= 1.1,
        "blocked matmul 256x256x256 ({blocked_mm:.0} ns) must beat naive ({naive_mm:.0} ns) \
         by at least 1.1x"
    );

    // A one-row predict streams the weight matrix once instead of packing
    // it for a register tile nothing fills; packing it made blocked several
    // times slower than naive here. 1.3× sits well under the recorded
    // speedup, so quick-mode noise doesn't flake it.
    let naive_row = backend_ns_of("matmul", "1x512x512", "naive");
    let blocked_row = backend_ns_of("matmul", "1x512x512", "blocked");
    println!(
        "matmul 1x512x512 blocked speedup vs naive at 1 thread: {:.2}x",
        naive_row / blocked_row
    );
    assert!(
        cfg!(debug_assertions) || naive_row / blocked_row >= 1.3,
        "blocked matmul 1x512x512 ({blocked_row:.0} ns) must beat naive ({naive_row:.0} ns) \
         by at least 1.3x"
    );

    // The blocked conv tile runs vector lanes where naive runs scalar
    // loops; on the TCN's dominant layer it must keep a clear lead, so a
    // conv that falls back to a slow path fails here. 1.5× leaves room for
    // quick-mode noise under the recorded speedups.
    for kernel in ["conv1d_fwd", "conv1d_bwd"] {
        let size = "16->16 k3 d2 t20 b64";
        let naive_ns = backend_ns_of(kernel, size, "naive");
        let blocked_ns = backend_ns_of(kernel, size, "blocked");
        println!(
            "{kernel} {size} blocked speedup vs naive at 1 thread: {:.2}x",
            naive_ns / blocked_ns
        );
        assert!(
            cfg!(debug_assertions) || naive_ns / blocked_ns >= 1.5,
            "blocked {kernel} {size} ({blocked_ns:.0} ns) must beat naive ({naive_ns:.0} ns) \
             by at least 1.5x"
        );
    }

    // --- report -----------------------------------------------------------
    tasfar_obs::sync_arena_metrics();
    let results: Vec<Json> = rows
        .iter()
        .map(|r| {
            let baseline = rows
                .iter()
                .find(|b| {
                    b.kernel == r.kernel
                        && b.size == r.size
                        && b.backend == r.backend
                        && b.threads == 1
                })
                .map(|b| b.ns_per_iter)
                .unwrap_or(r.ns_per_iter);
            // Nanosecond counts are emitted as integers (`3692`, not
            // `3692.109375`): the sub-ns fraction is far below clock
            // resolution, and float-formatted counts made the file look
            // like it carried ratio-valued fields. Ratios (`speedup_*`)
            // stay floats.
            let ns = |v: f64| Json::UInt(v.round() as u64);
            let mut pairs = vec![
                ("kernel", Json::from(r.kernel)),
                ("size", Json::from(r.size.clone())),
                ("backend", Json::from(r.backend)),
                ("threads", Json::from(r.threads)),
                ("ns_per_iter", ns(r.ns_per_iter)),
                ("ns_per_iter_p50", ns(r.ns_per_iter_p50)),
                ("ns_per_iter_p90", ns(r.ns_per_iter_p90)),
                ("wall_ns_total", ns(r.wall_ns_total)),
                ("warmup_iters", Json::from(r.warmup_iters)),
                ("speedup_vs_1_thread", Json::Num(baseline / r.ns_per_iter)),
            ];
            // Blocked rows carry the head-to-head against the naive row of
            // the same kernel/size/threads, when that row exists.
            if r.backend == "blocked" {
                if let Some(naive) = rows.iter().find(|b| {
                    b.kernel == r.kernel
                        && b.size == r.size
                        && b.backend == "naive"
                        && b.threads == r.threads
                }) {
                    pairs.push((
                        "speedup_vs_naive",
                        Json::Num(naive.ns_per_iter / r.ns_per_iter),
                    ));
                }
            }
            // On a single-CPU host a >1-thread run cannot scale; tag the row
            // so consumers don't read scheduling overhead as a regression.
            if cpus == 1 && r.threads > 1 {
                pairs.push(("thread_scaling_na", Json::Bool(true)));
            }
            Json::obj(pairs)
        })
        .collect();
    let doc = Json::obj(vec![
        ("host_cpus", Json::from(cpus)),
        ("samples_per_point", Json::from(samples)),
        ("results", Json::Arr(results)),
        ("alloc_hot_path", Json::from(hot_path_allocs)),
        ("arena", tasfar_obs::arena_stats_json()),
        ("parallel_pool", tasfar_obs::pool_stats_json()),
        ("backend_dispatch", tasfar_obs::backend_stats_json()),
    ]);
    // `TASFAR_BENCH_OUT` redirects the result file (the verify gate writes
    // to a scratch path); the process must still run from the repo root so
    // `.cargo/config.toml` — and with it `target-cpu=native` — applies.
    let out_path =
        std::env::var("TASFAR_BENCH_OUT").unwrap_or_else(|_| "BENCH_kernels.json".into());
    std::fs::write(&out_path, format!("{doc}\n"))
        .unwrap_or_else(|e| panic!("write {out_path}: {e}"));
    println!("wrote {out_path} ({} rows)", rows.len());
}
