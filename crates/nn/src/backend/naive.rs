//! The reference backend: the original scalar + threads kernels, ported
//! verbatim from `tensor.rs` and `layers/conv1d.rs`.
//!
//! The kernel bodies live here as `pub(super)` free functions so
//! [`CpuBlocked`](super::CpuBlocked) can reuse them for shapes below its
//! blocking cutoff — one definition, one accumulation order, trivially
//! bit-identical. Each free function operates on flat slices; the
//! [`Backend`] impl is a thin adapter.

use super::{Backend, Conv1dGeometry};
use crate::scratch::Scratch;
use crate::tensor::{kernel_rows_per_chunk, Tensor};

/// `C (m×n) = A (m×k) · B (k×n)`, row-major, every output cell assigned.
///
/// Row-parallel register-blocked kernel on [`crate::parallel`]: output rows
/// are split into fixed chunks, each chunk computed by one thread. Inside a
/// chunk, pairs of output rows are accumulated together in ikj order so each
/// `b` row is loaded once per row pair and the inner loop is a branch-free
/// multiply-add sweep the compiler can vectorise. Per-element accumulation
/// order is `p = 0..k` from a `0.0` start regardless of blocking or threads,
/// so results are bit-identical for any thread count.
pub(super) fn matmul_into(m: usize, k: usize, n: usize, a: &[f64], b: &[f64], out: &mut [f64]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    let a_data = a;
    let b_data = b;
    let rows_per_chunk = kernel_rows_per_chunk(m, k * n);
    crate::parallel::for_each_row_chunk(out, n, rows_per_chunk, |rows, chunk| {
        let mut local = rows.start;
        let mut chunk = chunk;
        // Two output rows per iteration: both reuse each b-row load.
        // Within a row pair the output is produced in 8-column register
        // tiles: the accumulators live in registers for the whole `p`
        // sweep and are stored once, instead of a read-modify-write of
        // the output row per `p`. Every output element still accumulates
        // its `k` products in ascending-`p` order from a 0.0 start, so
        // the result is bit-identical to the untiled form.
        while local + 2 <= rows.end {
            let (o0, rest) = chunk.split_at_mut(n);
            let (o1, rest) = rest.split_at_mut(n);
            chunk = rest;
            let a0 = &a_data[local * k..(local + 1) * k];
            let a1 = &a_data[(local + 1) * k..(local + 2) * k];
            let mut j = 0;
            while j + 8 <= n {
                let mut acc0 = [0.0f64; 8];
                let mut acc1 = [0.0f64; 8];
                for p in 0..k {
                    let (s0, s1) = (a0[p], a1[p]);
                    let b_blk = &b_data[p * n + j..p * n + j + 8];
                    for t in 0..8 {
                        acc0[t] += s0 * b_blk[t];
                        acc1[t] += s1 * b_blk[t];
                    }
                }
                o0[j..j + 8].copy_from_slice(&acc0);
                o1[j..j + 8].copy_from_slice(&acc1);
                j += 8;
            }
            while j < n {
                let (mut c0, mut c1) = (0.0, 0.0);
                for p in 0..k {
                    let b = b_data[p * n + j];
                    c0 += a0[p] * b;
                    c1 += a1[p] * b;
                }
                o0[j] = c0;
                o1[j] = c1;
                j += 1;
            }
            local += 2;
        }
        if local < rows.end {
            let o0 = chunk;
            let a0 = &a_data[local * k..(local + 1) * k];
            let mut j = 0;
            while j + 8 <= n {
                let mut acc0 = [0.0f64; 8];
                for p in 0..k {
                    let s0 = a0[p];
                    let b_blk = &b_data[p * n + j..p * n + j + 8];
                    for t in 0..8 {
                        acc0[t] += s0 * b_blk[t];
                    }
                }
                o0[j..j + 8].copy_from_slice(&acc0);
                j += 8;
            }
            while j < n {
                let mut c0 = 0.0;
                for p in 0..k {
                    c0 += a0[p] * b_data[p * n + j];
                }
                o0[j] = c0;
                j += 1;
            }
        }
    });
}

/// `C (m×n) = Aᵀ · B` where `A` is stored `k×m` row-major; every output cell
/// is defined (the kernel zeroes its chunk before accumulating, so callers
/// may pass arbitrary contents).
///
/// Parallel over output rows (columns of `A`); each output row is a
/// strided-`A` axpy sweep over `B` rows in `p = 0..k` order, so the
/// accumulation order — and therefore every bit of the result — is
/// independent of the thread count.
pub(super) fn t_matmul_into(m: usize, k: usize, n: usize, a: &[f64], b: &[f64], out: &mut [f64]) {
    debug_assert_eq!(a.len(), k * m);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    let a_data = a;
    let b_data = b;
    let rows_per_chunk = kernel_rows_per_chunk(m, k * n);
    crate::parallel::for_each_row_chunk(out, n, rows_per_chunk, |rows, chunk| {
        // Accumulates in place, so start the chunk from exact zeros (the
        // backend contract hands over `out` with arbitrary contents).
        chunk.fill(0.0);
        for (local, i) in rows.clone().enumerate() {
            let out_row = &mut chunk[local * n..(local + 1) * n];
            for p in 0..k {
                let a = a_data[p * m + i];
                let b_row = &b_data[p * n..(p + 1) * n];
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
    });
}

/// `C (m×n) = A · Bᵀ` where `B` is stored `n×k` row-major; every output cell
/// assigned from a register accumulator.
///
/// Parallel over output rows; within a row, four dot products run together
/// so each `A` row element is loaded once per quad of `B` rows. Each dot
/// product accumulates in index order, keeping results bit-identical for any
/// thread count.
pub(super) fn matmul_t_into(m: usize, k: usize, n: usize, a: &[f64], b: &[f64], out: &mut [f64]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    debug_assert_eq!(out.len(), m * n);
    let a_data = a;
    let b_data = b;
    let rows_per_chunk = kernel_rows_per_chunk(m, k * n);
    crate::parallel::for_each_row_chunk(out, n, rows_per_chunk, |rows, chunk| {
        for (local, i) in rows.clone().enumerate() {
            let a_row = &a_data[i * k..(i + 1) * k];
            let out_row = &mut chunk[local * n..(local + 1) * n];
            let mut j = 0;
            while j + 4 <= n {
                let b0 = &b_data[j * k..(j + 1) * k];
                let b1 = &b_data[(j + 1) * k..(j + 2) * k];
                let b2 = &b_data[(j + 2) * k..(j + 3) * k];
                let b3 = &b_data[(j + 3) * k..(j + 4) * k];
                let (mut c0, mut c1, mut c2, mut c3) = (0.0, 0.0, 0.0, 0.0);
                for (p, &a) in a_row.iter().enumerate() {
                    c0 += a * b0[p];
                    c1 += a * b1[p];
                    c2 += a * b2[p];
                    c3 += a * b3[p];
                }
                out_row[j] = c0;
                out_row[j + 1] = c1;
                out_row[j + 2] = c2;
                out_row[j + 3] = c3;
                j += 4;
            }
            while j < n {
                let b_row = &b_data[j * k..(j + 1) * k];
                let mut acc = 0.0;
                for (&a, &b) in a_row.iter().zip(b_row) {
                    acc += a * b;
                }
                out_row[j] = acc;
                j += 1;
            }
        }
    });
}

/// Causal dilated conv forward over channels-major packed rows.
///
/// Batch rows are independent, so the kernel parallelises over output rows;
/// per-row arithmetic order never changes, keeping results bit-identical for
/// any thread count. Per output element, products accumulate on top of the
/// bias in `(c, tap)` order, c-major, skipping the taps that would read
/// before the window — the per-element sequence each vector lane of
/// [`CpuBlocked`](super::CpuBlocked)'s conv tile reproduces exactly.
pub(super) fn conv1d_forward(
    geo: &Conv1dGeometry,
    input: &Tensor,
    w: &[f64],
    bias: &[f64],
    out: &mut Tensor,
) {
    let (t_len, k, dil) = (geo.time_len, geo.kernel, geo.dilation);
    let (in_ch, out_ch) = (geo.in_ch, geo.out_ch);
    let b = bias;
    let out_width = geo.output_width();
    debug_assert_eq!(out.shape(), (input.rows(), out_width));
    let rows_per_chunk = kernel_rows_per_chunk(input.rows(), 2 * out_ch * in_ch * k * t_len);
    crate::parallel::for_each_row_chunk(
        out.as_mut_slice(),
        out_width,
        rows_per_chunk,
        |rows, chunk| {
            for (local, r) in rows.clone().enumerate() {
                let x_row = input.row(r);
                let y_row = &mut chunk[local * out_width..(local + 1) * out_width];
                for o in 0..out_ch {
                    let w_o = &w[o * in_ch * k..(o + 1) * in_ch * k];
                    let y_o = &mut y_row[o * t_len..(o + 1) * t_len];
                    y_o.fill(b[o]);
                    for c in 0..in_ch {
                        let x_c = &x_row[c * t_len..(c + 1) * t_len];
                        let w_oc = &w_o[c * k..(c + 1) * k];
                        for (tap, &wv) in w_oc.iter().enumerate() {
                            // Tap `tap` reads the input `(k-1-tap)·dil`
                            // steps back.
                            let back = (k - 1 - tap) * dil;
                            for t in back..t_len {
                                y_o[t] += wv * x_c[t - back];
                            }
                        }
                    }
                }
            }
        },
    );
}

/// Causal dilated conv backward: input gradient plus `dw`/`db` reductions.
///
/// Parallel across batch rows: `grad_input` rows are disjoint, while the
/// shared `dw`/`db` reductions accumulate into per-chunk aux buffers (laid
/// out `dw ++ db`) that are combined in chunk order afterwards. Chunk
/// boundaries are fixed by the batch size alone, so gradients are
/// bit-identical for any thread count.
#[allow(clippy::too_many_arguments)]
pub(super) fn conv1d_backward(
    geo: &Conv1dGeometry,
    input: &Tensor,
    grad_output: &Tensor,
    w: &[f64],
    dw: &mut [f64],
    db: &mut [f64],
    grad_input: &mut Tensor,
    scratch: &mut Scratch,
) {
    let (t_len, k, dil) = (geo.time_len, geo.kernel, geo.dilation);
    let (in_ch, out_ch) = (geo.in_ch, geo.out_ch);
    let in_width = geo.input_width();
    let n_rows = input.rows();
    debug_assert_eq!(grad_input.shape(), (n_rows, in_width));

    const ROWS_PER_CHUNK: usize = 8;
    let n_chunks = crate::parallel::chunk_count(n_rows, ROWS_PER_CHUNK);
    let aux_per_chunk = w.len() + out_ch;
    let mut aux = scratch.take_vec(n_chunks * aux_per_chunk);
    crate::parallel::for_each_row_chunk_with_aux(
        grad_input.as_mut_slice(),
        in_width,
        ROWS_PER_CHUNK,
        &mut aux,
        aux_per_chunk,
        |rows, gx_chunk, partial| {
            let (dw_local, db_local) = partial.split_at_mut(w.len());
            for (local, r) in rows.enumerate() {
                let x_row = input.row(r);
                let g_row = grad_output.row(r);
                let gx_row = &mut gx_chunk[local * in_width..(local + 1) * in_width];
                for o in 0..out_ch {
                    let g_o = &g_row[o * t_len..(o + 1) * t_len];
                    db_local[o] += g_o.iter().sum::<f64>();
                    for c in 0..in_ch {
                        let x_c = &x_row[c * t_len..(c + 1) * t_len];
                        let gx_c = &mut gx_row[c * t_len..(c + 1) * t_len];
                        for tap in 0..k {
                            let back = (k - 1 - tap) * dil;
                            let widx = o * in_ch * k + c * k + tap;
                            let wv = w[widx];
                            let mut dw_acc = 0.0;
                            for t in back..t_len {
                                let g = g_o[t];
                                dw_acc += g * x_c[t - back];
                                gx_c[t - back] += g * wv;
                            }
                            dw_local[widx] += dw_acc;
                        }
                    }
                }
            }
        },
    );
    for partial in aux.chunks_exact(aux_per_chunk) {
        let (dw_local, db_local) = partial.split_at(w.len());
        for (acc, v) in dw.iter_mut().zip(dw_local) {
            *acc += v;
        }
        for (acc, v) in db.iter_mut().zip(db_local) {
            *acc += v;
        }
    }
    scratch.give_vec(aux);
}

/// The reference scalar + threads backend: the exact kernels the golden-hash
/// suite was pinned against. Dispatch never selects it; the equivalence
/// tests and the `kernels` bench call it directly through [`Backend`].
#[derive(Debug, Default, Clone, Copy)]
pub struct CpuNaive;

impl Backend for CpuNaive {
    fn name(&self) -> &'static str {
        "naive"
    }

    fn matmul_into(&self, m: usize, k: usize, n: usize, a: &[f64], b: &[f64], out: &mut [f64]) {
        matmul_into(m, k, n, a, b, out);
    }

    fn t_matmul_into(&self, m: usize, k: usize, n: usize, a: &[f64], b: &[f64], out: &mut [f64]) {
        t_matmul_into(m, k, n, a, b, out);
    }

    fn matmul_t_into(&self, m: usize, k: usize, n: usize, a: &[f64], b: &[f64], out: &mut [f64]) {
        matmul_t_into(m, k, n, a, b, out);
    }

    fn conv1d_forward(
        &self,
        geo: &Conv1dGeometry,
        input: &Tensor,
        w: &[f64],
        bias: &[f64],
        out: &mut Tensor,
    ) {
        conv1d_forward(geo, input, w, bias, out);
    }

    fn conv1d_backward(
        &self,
        geo: &Conv1dGeometry,
        input: &Tensor,
        grad_output: &Tensor,
        w: &[f64],
        dw: &mut [f64],
        db: &mut [f64],
        grad_input: &mut Tensor,
        scratch: &mut Scratch,
    ) {
        conv1d_backward(geo, input, grad_output, w, dw, db, grad_input, scratch);
    }
}
