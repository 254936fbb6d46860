//! Cross-backend equivalence: `CpuNaive` and `CpuBlocked`, called through
//! `&dyn Backend` on the same inputs, must produce bit-identical results for
//! every GEMM variant, the scaled-accumulate GEMM and the causal conv
//! forward and backward. GEMM shapes are chosen to stress the blocked
//! loop nest — non-square, degenerate (1-sized dimensions), prime-sized, and
//! large enough to cross the blocking cutoff. The in-module tests in
//! `backend::blocked` sweep the tiling schemes; this suite is the
//! trait-level contract, plus pack-buffer reuse and the dispatch counters
//! of the `Tensor` and `Conv1d` entry points real callers take.

use tasfar_nn::backend::{self, Backend, Conv1dGeometry, CpuBlocked, CpuNaive};
use tasfar_nn::parallel;
use tasfar_nn::rng::Rng;
use tasfar_nn::scratch::Scratch;
use tasfar_nn::tensor::Tensor;

const NAIVE: &dyn Backend = &CpuNaive;
const BLOCKED: &dyn Backend = &CpuBlocked::with_tiling(backend::TilingScheme::DEFAULT);

fn rand_tensor(rows: usize, cols: usize, rng: &mut Rng) -> Tensor {
    Tensor::rand_normal(rows, cols, 0.0, 1.0, rng)
}

fn assert_bits_eq(a: &Tensor, b: &Tensor, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what}: shape mismatch");
    for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: bit mismatch at {i}: {x} vs {y}"
        );
    }
}

/// Non-square, prime, and cutoff-crossing shapes. Degenerate 0-sized
/// dimensions are rejected by the `Tensor` constructors themselves, so the
/// degenerate coverage here is the 1-sized edge.
fn shapes() -> Vec<(usize, usize, usize)> {
    vec![
        (1, 1, 1),
        (1, 97, 1),
        (2, 3, 251),     // prime n, far below cutoff
        (17, 1, 64),     // k = 1: every output is a single product
        (61, 67, 71),    // all prime, just above the cutoff
        (64, 300, 64),   // two kc-blocks
        (200, 129, 77),  // multiple mc-slabs, ragged everywhere
        (256, 256, 256), // the bench shape
    ]
}

/// Which GEMM variant a shape runs as.
#[derive(Clone, Copy)]
enum Gemm {
    Matmul,
    TMatmul,
    MatmulT,
}

/// Runs one GEMM variant on `bk` into a NaN-filled output, so a cell the
/// kernel fails to define shows up as a mismatch.
fn gemm(bk: &dyn Backend, op: Gemm, m: usize, k: usize, n: usize, a: &[f64], b: &[f64]) -> Tensor {
    let mut out = Tensor::from_vec(m, n, vec![f64::NAN; m * n]);
    let o = out.as_mut_slice();
    match op {
        Gemm::Matmul => bk.matmul_into(m, k, n, a, b, o),
        Gemm::TMatmul => bk.t_matmul_into(m, k, n, a, b, o),
        Gemm::MatmulT => bk.matmul_t_into(m, k, n, a, b, o),
    }
    out
}

/// Every shape under both backends, with `a` and `b` stored as the variant
/// reads them (`t_matmul`'s A is `k×m`, `matmul_t`'s B is `n×k`).
fn gemm_bits_match(op: Gemm, name: &str, seed: u64) {
    let mut rng = Rng::new(seed);
    for (m, k, n) in shapes() {
        let (ar, ac) = match op {
            Gemm::TMatmul => (k, m),
            _ => (m, k),
        };
        let (br, bc) = match op {
            Gemm::MatmulT => (n, k),
            _ => (k, n),
        };
        let a = rand_tensor(ar, ac, &mut rng);
        let b = rand_tensor(br, bc, &mut rng);
        let (a, b) = (a.as_slice(), b.as_slice());
        assert_bits_eq(
            &gemm(NAIVE, op, m, k, n, a, b),
            &gemm(BLOCKED, op, m, k, n, a, b),
            &format!("{name} {m}x{k}x{n}"),
        );
    }
}

#[test]
fn matmul_bits_match_across_backends() {
    gemm_bits_match(Gemm::Matmul, "matmul", 0xBE01);
}

#[test]
fn t_matmul_bits_match_across_backends() {
    gemm_bits_match(Gemm::TMatmul, "t_matmul", 0xBE02);
}

#[test]
fn matmul_t_bits_match_across_backends() {
    gemm_bits_match(Gemm::MatmulT, "matmul_t", 0xBE03);
}

#[test]
fn addmm_scaled_bits_match_across_backends() {
    let mut rng = Rng::new(0xBE07);
    let mut scratch = Scratch::new();
    for (m, k, n) in shapes() {
        let a = rand_tensor(m, k, &mut rng);
        let b = rand_tensor(k, n, &mut rng);
        let base = rand_tensor(m, n, &mut rng);
        let mut run = |bk: &dyn Backend| {
            let mut out = base.clone();
            bk.addmm_scaled_into(
                m,
                k,
                n,
                0.375,
                a.as_slice(),
                b.as_slice(),
                out.as_mut_slice(),
                &mut scratch,
            );
            out
        };
        let (nv, bl) = (run(NAIVE), run(BLOCKED));
        assert_bits_eq(&nv, &bl, &format!("addmm_scaled {m}x{k}x{n}"));
    }
}

/// Bit equality where any NaN matches any NaN (payloads are not part of the
/// contract); everything else, signed zeros included, must match exactly.
fn assert_bits_eq_nan(a: &Tensor, b: &Tensor, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what}: shape mismatch");
    for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
        assert!(
            x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()),
            "{what}: bit mismatch at {i}: {x:e} vs {y:e}"
        );
    }
}

/// A value drawn to stress the conv kernels' edge arithmetic: mostly
/// normals, with `-0.0`/`+0.0` (a padded product would flip a `-0.0` sum
/// to `+0.0`), subnormals, and, at rate `p_inf`, `±inf` (a padded
/// `inf·0` would turn a skipped tap into NaN).
fn edge_value(rng: &mut Rng, p_zero: f64, p_inf: f64) -> f64 {
    let u = rng.uniform(0.0, 1.0);
    let sign = if rng.bernoulli(0.5) { -1.0 } else { 1.0 };
    if u < p_zero {
        sign * 0.0
    } else if u < p_zero + 0.05 {
        sign * rng.uniform(0.0, 1.0) * 2e-310
    } else if u < p_zero + 0.05 + p_inf {
        sign * f64::INFINITY
    } else {
        rng.gaussian(0.0, 1.0)
    }
}

fn edge_tensor(rows: usize, cols: usize, rng: &mut Rng, p_zero: f64, p_inf: f64) -> Tensor {
    let v = (0..rows * cols)
        .map(|_| edge_value(rng, p_zero, p_inf))
        .collect();
    Tensor::from_vec(rows, cols, v)
}

#[test]
fn conv_layers_bits_match_across_backends() {
    // Forward, `grad_input` and the accumulated `dw`/`db` over random
    // geometries: channels past one register panel, every kernel size and
    // dilation, causal reach at or past the window (`(k-1)·dil >= T`), and
    // batches across the 8-row backward chunk. An adapter's `W_eff` reaches
    // the kernels as just another weight array, so the weights here cover
    // it. `dw`/`db` start from nonzero values: the kernels accumulate.
    let mut cases = Rng::new(0xBE04);
    let mut scratch = Scratch::new();
    for case in 0..160 {
        let geo = Conv1dGeometry {
            in_ch: 1 + cases.below(20),
            out_ch: 1 + cases.below(20),
            kernel: 1 + cases.below(5),
            dilation: 1 + cases.below(5),
            time_len: 1 + cases.below(40),
        };
        let batch = 1 + cases.below(70);
        // Every third case is zero-heavy (signed zeros everywhere, the
        // bias included); every fifth carries infinities.
        let p_zero = if case % 3 == 0 { 0.5 } else { 0.05 };
        let p_inf = if case % 5 == 0 { 0.01 } else { 0.0 };
        let mut rng = Rng::new(cases.u64());
        let w = edge_tensor(geo.out_ch, geo.in_ch * geo.kernel, &mut rng, p_zero, p_inf);
        let bias = edge_tensor(1, geo.out_ch, &mut rng, p_zero, p_inf);
        let x = edge_tensor(batch, geo.input_width(), &mut rng, p_zero, p_inf);
        let g = edge_tensor(batch, geo.output_width(), &mut rng, p_zero, p_inf);
        let dw0 = edge_tensor(geo.out_ch, geo.in_ch * geo.kernel, &mut rng, p_zero, 0.0);
        let db0 = edge_tensor(1, geo.out_ch, &mut rng, p_zero, 0.0);
        let mut run = |bk: &dyn Backend| {
            // NaN-prefilled: the forward must assign every cell (the naive
            // reference does, and it yields NaN only from an inf input).
            let mut y = Tensor::full(batch, geo.output_width(), f64::NAN);
            bk.conv1d_forward(&geo, &x, w.as_slice(), bias.as_slice(), &mut y);
            let (mut dw, mut db) = (dw0.clone(), db0.clone());
            let mut dx = Tensor::zeros(batch, geo.input_width());
            bk.conv1d_backward(
                &geo,
                &x,
                &g,
                w.as_slice(),
                dw.as_mut_slice(),
                db.as_mut_slice(),
                &mut dx,
                &mut scratch,
            );
            [y, dx, dw, db]
        };
        let (naive, blocked) = (run(NAIVE), run(BLOCKED));
        let what = format!("conv case {case}: {geo:?} batch={batch}");
        for (part, (n, b)) in ["forward", "grad_input", "dw", "db"]
            .iter()
            .zip(naive.iter().zip(&blocked))
        {
            assert_bits_eq_nan(n, b, &format!("{what} {part}"));
        }
    }
}

/// Shapes for the blocked backend's arms: `m = 1..=9` at `512×512` (both
/// sides of `mr`; `1×512×512` sits exactly on the cutoff), a wide one-row
/// product, a one-column product, the rank-2 adapter product on 256
/// MC-dropout rows (also on the cutoff), two `kc` blocks with an `nc`
/// wrap under `mr` rows, and a product of several row chunks sharing one
/// B pack.
fn arm_shapes() -> Vec<(usize, usize, usize)> {
    let mut shapes: Vec<_> = (1..=9).map(|m| (m, 512, 512)).collect();
    shapes.extend([
        (1, 1024, 1024),
        (2048, 512, 1),
        (256, 512, 2),
        (7, 300, 520),
        (300, 513, 515),
    ]);
    shapes
}

/// A logical `rows×cols` matrix laid out as `transposed` storage reads it.
fn stored(logical: &Tensor, transposed: bool) -> Vec<f64> {
    if transposed {
        logical.transpose().as_slice().to_vec()
    } else {
        logical.as_slice().to_vec()
    }
}

/// Every arm of the blocked backend against the naive reference, bit for
/// bit, at 1 and 3 threads: each GEMM variant into a NaN-prefilled output
/// and the scaled-accumulate GEMM onto a random base. The second input
/// variant draws `−0.0`, subnormals and `±inf` like the conv loop, with
/// every fourth row of A all `−0.0` and every third column of B all
/// `+0.0`: those cells sum only `−0.0` products, which a chain started
/// anywhere but `+0.0` would leave negative.
#[test]
fn gemm_arms_bits_match_across_backends_and_threads() {
    let mut rng = Rng::new(0xBE08);
    let mut scratch = Scratch::new();
    for (m, k, n) in arm_shapes() {
        for edge in [false, true] {
            let (a, b) = if edge {
                let mut a = edge_tensor(m, k, &mut rng, 0.2, 2e-4);
                let mut b = edge_tensor(k, n, &mut rng, 0.2, 2e-4);
                for i in (1..m).step_by(4) {
                    a.as_mut_slice()[i * k..(i + 1) * k].fill(-0.0);
                }
                for p in 0..k {
                    for j in (2..n).step_by(3) {
                        b.set(p, j, 0.0);
                    }
                }
                (a, b)
            } else {
                (rand_tensor(m, k, &mut rng), rand_tensor(k, n, &mut rng))
            };
            let base = rand_tensor(m, n, &mut rng);
            let ops = [
                (Gemm::Matmul, "matmul", stored(&a, false), stored(&b, false)),
                (
                    Gemm::TMatmul,
                    "t_matmul",
                    stored(&a, true),
                    stored(&b, false),
                ),
                (
                    Gemm::MatmulT,
                    "matmul_t",
                    stored(&a, false),
                    stored(&b, true),
                ),
            ];
            let want: Vec<Tensor> = ops
                .iter()
                .map(|(op, _, a, b)| gemm(NAIVE, *op, m, k, n, a, b))
                .collect();
            let addmm = |bk: &dyn Backend, scratch: &mut Scratch| {
                let mut out = base.clone();
                let (a, b) = (a.as_slice(), b.as_slice());
                bk.addmm_scaled_into(m, k, n, -0.75, a, b, out.as_mut_slice(), scratch);
                out
            };
            let want_addmm = addmm(NAIVE, &mut scratch);
            for threads in [1, 3] {
                parallel::set_threads(threads);
                let what = format!("{m}x{k}x{n} edge={edge} threads={threads}");
                for ((op, name, a, b), want) in ops.iter().zip(&want) {
                    let got = gemm(BLOCKED, *op, m, k, n, a, b);
                    assert_bits_eq_nan(want, &got, &format!("{name} {what}"));
                }
                let got = addmm(BLOCKED, &mut scratch);
                assert_bits_eq_nan(&want_addmm, &got, &format!("addmm_scaled {what}"));
                parallel::reset_threads();
            }
        }
    }
}

#[test]
fn blocked_packing_reaches_steady_state_without_alloc_churn() {
    // The pack buffers are thread-local and retained: after one warmup call
    // above the blocking cutoff, repeated calls must reuse them. There is no
    // counting allocator in this binary, so assert the observable contract
    // instead: results stay bit-identical call over call (buffers are
    // re-filled, never stale) including after an intervening *smaller*
    // blocked call that shrinks the packed extent. (The calls go through
    // the trait, not `Tensor`, so the dispatch counter test below counts
    // its own calls only.)
    // A thin product (streamed, no packing) and a product of several row
    // chunks (one B pack shared by all of them, A packed per chunk) run in
    // between and must repeat too.
    let mut rng = Rng::new(0xBE05);
    let mut run = |m: usize, k: usize, n: usize| {
        let a = Tensor::rand_normal(m, k, 0.0, 1.0, &mut rng);
        let b = Tensor::rand_normal(k, n, 0.0, 1.0, &mut rng);
        move || gemm(BLOCKED, Gemm::Matmul, m, k, n, a.as_slice(), b.as_slice())
    };
    let big = run(256, 256, 256);
    let small = run(64, 80, 64);
    let thin = run(1, 512, 512);
    let multi_chunk = run(300, 513, 515);
    let first = [big(), thin(), multi_chunk()];
    for _ in 0..3 {
        small();
        let again = [big(), thin(), multi_chunk()];
        for (what, (got, want)) in ["big", "thin", "multi-chunk"]
            .iter()
            .zip(again.iter().zip(&first))
        {
            assert_bits_eq(got, want, &format!("steady-state blocked matmul ({what})"));
        }
    }
}

/// Each `Tensor` GEMM and `Conv1d` kernel call adds one dispatch, served by
/// the blocked backend. No other test in this binary dispatches.
#[test]
fn dispatch_counters_attribute_to_active_backend() {
    use tasfar_nn::layers::{Conv1d, Layer, Mode};
    let mut rng = Rng::new(0xBE06);
    let a = Tensor::rand_normal(8, 8, 0.0, 1.0, &mut rng);
    let b = Tensor::rand_normal(8, 8, 0.0, 1.0, &mut rng);
    let mut conv = Conv1d::new(2, 3, 3, 1, 5, &mut rng);
    let x = Tensor::rand_normal(4, 10, 0.0, 1.0, &mut rng);
    let g = Tensor::rand_normal(4, 15, 0.0, 1.0, &mut rng);

    let calls = |what: &str, f: &mut dyn FnMut()| {
        let before = backend::stats();
        f();
        let after = backend::stats();
        assert_eq!(
            after.blocked_calls,
            before.blocked_calls + 1,
            "{what}: one blocked dispatch"
        );
        assert_eq!(after.naive_calls, 0, "{what}: dispatch never serves naive");
    };
    calls("matmul", &mut || drop(a.matmul(&b)));
    calls("t_matmul", &mut || drop(a.t_matmul(&b)));
    calls("matmul_t", &mut || drop(a.matmul_t(&b)));
    calls("conv forward", &mut || drop(conv.forward(&x, Mode::Train)));
    calls("conv backward", &mut || drop(conv.backward(&g)));
}
