//! The cache-blocked, panel-packed backend.
//!
//! A GEMM takes one of three arms, chosen from its shape alone:
//!
//! * **Small** (`2·m·k·n` below [`MIN_BLOCKED_FLOPS`]): the shared naive
//!   kernels.
//! * **Thin** (`m < mr` or `n < nr`): no packing, because no full `mr×nr`
//!   register tile would reuse a packed panel; each operand is read once
//!   in storage order instead. [`gemm_streamed`] serves `matmul` with
//!   `m < mr` and every thin `t_matmul`: it reads each row of B once for
//!   all output rows of a block, and `t_matmul`'s transposed A row by row
//!   too; a tall one spreads its row blocks over the threads. The
//!   other thin products — `matmul` with `n < nr` and every thin
//!   `matmul_t` — run the naive kernels, whose dot products already read
//!   A's and B's rows contiguously.
//! * **Packed** (everything else): classic three-level blocking (the BLIS
//!   decomposition) driven by an explicit [`TilingScheme`]. Each
//!   `kc`-deep step of B is packed once, on the calling thread, into
//!   `nr`-column-interleaved panels, and every parallel row chunk reads
//!   that one pack. A row chunk is a whole number of `mr`-row tiles,
//!   sized from `m` and at most `mc` rows, so a product of a few dozen
//!   rows still spreads over threads. Each chunk packs its rows of A into
//!   `mr`-row-interleaved panels, one `kc`-deep block at a time, and the
//!   `mr×nr` register-tiled microkernel streams both operands with unit
//!   stride regardless of their original layout (which is how the
//!   transposed variants reuse the same core).
//!
//! Conv1d runs every kernel size and dilation on one register tile. The
//! forward and `grad_input` are per-row GEMMs whose B rows are read
//! straight from the input (or gradient) row through a tap table — an
//! implicit im2col — with vector lanes across the tile's time columns; the
//! weight gradient is one [`micro_full`] GEMM per row and tap over the
//! row's input and gradient packed into panels.
//!
//! ## Bit-identity
//!
//! Blocking over `k` is the only transformation that could re-associate the
//! per-element sum, and it doesn't: the microkernel *loads its accumulator
//! tile from C* for every `kc`-block after the first, so each output element
//! remains one left-to-right sum over `p = 0..k` from `0.0` — merely
//! round-tripped through memory between blocks, which is exact for `f64`.
//! The streaming kernel keeps the same chain in the output row itself: the
//! row is zeroed, then each ascending `p` adds one product to each element.
//! Fused multiply-add is never used (Rust does not contract `a*b + c`
//! without an explicit `mul_add`), so every partial equals the naive
//! kernel's register value at the same point and the final bits match
//! [`CpuNaive`](super::CpuNaive) exactly. The conv tile keeps the naive
//! per-element sequence the same way: each lane starts from the naive seed
//! (the bias, the zeroed `grad_input`, or `0.0` for a weight-gradient
//! chain) and adds its products one multiply and one add at a time in the
//! naive order — `(c, tap)` c-major for the forward, `(o, tap)` o-major for
//! `grad_input`, ascending `u` for the weight gradient. At the causal edges
//! (the forward's first `(k−1)·dil` steps, `grad_input`'s last) a tile runs
//! over the in-range taps only: it never adds a product with the zero
//! padding, which would turn a `−0.0` sum into `+0.0` and an `inf` weight
//! into NaN where the naive kernel skips the tap.
//!
//! ## Memory discipline
//!
//! Pack buffers are per-thread `thread_local!` vectors grown on first use
//! and retained at their high-water length, so steady-state kernels
//! allocate nothing (the counting-allocator audits in
//! `tests/alloc_audit.rs` run under this backend) and the packers assign
//! every slot they hand out, padding zeros included, rather than clearing
//! the buffer first. The scratch arena is
//! not used here because `Layer::forward` already holds the thread-local
//! arena borrow when the kernel runs; dedicated buffers sidestep the
//! re-entrancy fallback that would otherwise allocate per call.

use super::{naive, Backend, Conv1dGeometry};
use crate::scratch::Scratch;
use crate::tensor::{kernel_rows_per_chunk, Tensor};
use std::cell::RefCell;

/// Largest `mr` any [`TilingScheme`] may request (edge-tile accumulators are
/// sized `MAX_MR × MAX_NR`).
pub(crate) const MAX_MR: usize = 8;
/// Largest `nr` any [`TilingScheme`] may request.
pub(crate) const MAX_NR: usize = 8;

/// GEMMs smaller than this many flops (`2·m·n·k`) run on the shared naive
/// kernels: below it, packing costs more than the cache misses it avoids,
/// and the operands fit in cache anyway (every product of the PDR TCN
/// lands here). Larger products pack only if they are at least one
/// register tile tall and wide; see the module docs for the three arms.
const MIN_BLOCKED_FLOPS: usize = 512 * 1024;

/// Cache-blocking configuration for [`CpuBlocked`].
///
/// `mc×kc` is the A block kept hot in L2, `kc×nc` the B block streamed
/// through it, and `mr×nr` the register tile each microkernel invocation
/// computes. Legal schemes satisfy `1 ≤ mr ≤ 8`, `1 ≤ nr ≤ 8`, `mc ≥ mr`,
/// `nc ≥ nr`, `kc ≥ 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TilingScheme {
    /// Output rows per A cache block, the tallest a parallel row chunk
    /// gets.
    pub mc: usize,
    /// Reduction depth per cache block.
    pub kc: usize,
    /// Output columns per cache block (also the column block of the
    /// streaming kernel).
    pub nc: usize,
    /// Microkernel register-tile rows.
    pub mr: usize,
    /// Microkernel register-tile columns.
    pub nr: usize,
}

impl TilingScheme {
    /// The tuned default for the f64 kernels on a modern x86 core: an
    /// `8×8` register tile (16 × 4-lane accumulator registers), a 256-deep
    /// reduction block (A and B panels of 16 KiB each, resident in L1 with
    /// room to spare), and a 128×256 A block (256 KiB, comfortably in L2).
    pub const DEFAULT: TilingScheme = TilingScheme {
        mc: 128,
        kc: 256,
        nc: 512,
        mr: 8,
        nr: 8,
    };

    /// Panics (at compile time for `const` contexts) unless the scheme is
    /// legal, then returns it.
    pub const fn validated(self) -> Self {
        assert!(
            self.mr >= 1 && self.mr <= MAX_MR,
            "TilingScheme: mr out of 1..=8"
        );
        assert!(
            self.nr >= 1 && self.nr <= MAX_NR,
            "TilingScheme: nr out of 1..=8"
        );
        assert!(self.mc >= self.mr, "TilingScheme: mc must be >= mr");
        assert!(self.nc >= self.nr, "TilingScheme: nc must be >= nr");
        assert!(self.kc >= 1, "TilingScheme: kc must be >= 1");
        self
    }
}

/// The cache-blocked, panel-packed backend, the one every kernel call
/// dispatches to. Bit-identical to [`CpuNaive`](super::CpuNaive) on every
/// input; see the module docs for the argument.
#[derive(Debug, Clone, Copy)]
pub struct CpuBlocked {
    tiling: TilingScheme,
}

impl CpuBlocked {
    /// A blocked backend driven by an explicit (validated) scheme.
    pub const fn with_tiling(tiling: TilingScheme) -> Self {
        CpuBlocked {
            tiling: tiling.validated(),
        }
    }

    /// The scheme this instance blocks with.
    pub fn tiling(&self) -> &TilingScheme {
        &self.tiling
    }

    /// The arm an `m×k×n` product takes (see the module docs).
    fn arm(&self, m: usize, k: usize, n: usize) -> Arm {
        if gemm_flops(m, k, n) < MIN_BLOCKED_FLOPS {
            Arm::Small
        } else if m < self.tiling.mr || n < self.tiling.nr {
            Arm::Thin
        } else {
            Arm::Packed
        }
    }
}

impl Default for CpuBlocked {
    fn default() -> Self {
        CpuBlocked::with_tiling(TilingScheme::DEFAULT)
    }
}

/// Row chunks a packed GEMM is cut into while they stay between `mr` and
/// `mc` rows: enough to spread a product of a few dozen rows over the
/// threads, while each chunk still runs several register tiles down every
/// B block it reads.
const ROW_CHUNKS: usize = 8;

/// How [`CpuBlocked`] runs one GEMM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Arm {
    /// Below [`MIN_BLOCKED_FLOPS`]: the naive kernel.
    Small,
    /// Above it but shorter than `mr` or narrower than `nr`: unpacked.
    Thin,
    /// The packed, register-tiled driver [`gemm_blocked`].
    Packed,
}

thread_local! {
    /// Per-thread A panels: one row chunk's `kc`-deep block at a time.
    static A_PACK: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
    /// One `kc`-deep step of B at a time, packed on the calling thread and
    /// read by every row chunk.
    static B_PACK: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

fn gemm_flops(m: usize, k: usize, n: usize) -> usize {
    2usize.saturating_mul(m).saturating_mul(k).saturating_mul(n)
}

/// `buf[..len]`, growing `buf` first when it is shorter. A retained pack
/// buffer keeps its high-water length, so only growth writes (zeros) into
/// it here; the packers assign every slot of the slice they are handed.
fn panel_slice(buf: &mut Vec<f64>, len: usize) -> &mut [f64] {
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
    &mut buf[..len]
}

/// Length of one packed `kc_eff × nc_eff` B block: whole `nr`-wide panels.
fn b_block_len(kc_eff: usize, nc_eff: usize, nr: usize) -> usize {
    kc_eff * nc_eff.div_ceil(nr) * nr
}

/// Packs the `m_eff × kc_eff` A block starting at `(i0, pc)` into
/// `mr`-interleaved panels: panel `pi` holds rows `pi·mr ..`, laid out
/// p-major as `dst[pi·(kc_eff·mr) + p·mr + r]`. Short final panels are
/// zero-padded to full `mr` width so every panel shares one stride; every
/// slot of `dst` (which must hold exactly the padded panels) is assigned.
///
/// `trans` selects the storage layout of the *logical* `m×k` operand:
/// `false` reads `a[(i0+row)·lda + pc+p]` (row-major, `lda = k`), `true`
/// reads `a[(pc+p)·lda + i0+row]` (stored `k×m`, `lda = m`).
#[allow(clippy::too_many_arguments)]
fn pack_a(
    dst: &mut [f64],
    a: &[f64],
    trans: bool,
    lda: usize,
    i0: usize,
    m_eff: usize,
    pc: usize,
    kc_eff: usize,
    mr: usize,
) {
    debug_assert_eq!(dst.len(), m_eff.div_ceil(mr) * kc_eff * mr);
    for (pi, panel) in dst.chunks_exact_mut(kc_eff * mr).enumerate() {
        let ir = pi * mr;
        let rows = mr.min(m_eff - ir);
        if trans {
            for (p, d) in panel.chunks_exact_mut(mr).enumerate() {
                d[..rows].copy_from_slice(&a[(pc + p) * lda + i0 + ir..][..rows]);
                d[rows..].fill(0.0);
            }
        } else {
            for r in 0..rows {
                let src_row = &a[(i0 + ir + r) * lda + pc..][..kc_eff];
                for (p, &v) in src_row.iter().enumerate() {
                    panel[p * mr + r] = v;
                }
            }
            if rows < mr {
                for d in panel.chunks_exact_mut(mr) {
                    d[rows..].fill(0.0);
                }
            }
        }
    }
}

/// Packs the `kc_eff × n_eff` B block starting at `(pc, jc)` into
/// `nr`-interleaved panels: panel `pj` holds columns `pj·nr ..`, laid out
/// p-major as `dst[pj·(kc_eff·nr) + p·nr + j]`, zero-padded and fully
/// assigned like [`pack_a`]. `trans = true` reads the logical `k×n`
/// operand from `n×k` storage (`ldb = k`); `false` reads row-major
/// (`ldb = n`).
#[allow(clippy::too_many_arguments)]
fn pack_b(
    dst: &mut [f64],
    b: &[f64],
    trans: bool,
    ldb: usize,
    jc: usize,
    n_eff: usize,
    pc: usize,
    kc_eff: usize,
    nr: usize,
) {
    debug_assert_eq!(dst.len(), b_block_len(kc_eff, n_eff, nr));
    for (pj, panel) in dst.chunks_exact_mut(kc_eff * nr).enumerate() {
        let jr = pj * nr;
        let cols = nr.min(n_eff - jr);
        if trans {
            for jj in 0..cols {
                let src_col = &b[(jc + jr + jj) * ldb + pc..][..kc_eff];
                for (p, &v) in src_col.iter().enumerate() {
                    panel[p * nr + jj] = v;
                }
            }
            if cols < nr {
                for d in panel.chunks_exact_mut(nr) {
                    d[cols..].fill(0.0);
                }
            }
        } else {
            for (p, d) in panel.chunks_exact_mut(nr).enumerate() {
                d[..cols].copy_from_slice(&b[(pc + p) * ldb + jc + jr..][..cols]);
                d[cols..].fill(0.0);
            }
        }
    }
}

/// The full `MR×NR` register-tiled microkernel: accumulators live in
/// registers for the whole `kc`-deep sweep and are stored once. `first`
/// selects the accumulator start — `0.0` on the first `kc`-block, the
/// partial already in C afterwards — which is what keeps the per-element
/// sum a single ascending-`p` chain (see module docs). `c` points at the
/// tile's top-left element; rows are `ldc` apart.
///
/// `inline(never)`: each monomorphisation is one standalone symbol with its
/// own register allocation, so the accumulator tile stays in registers no
/// matter how large the surrounding driver grows; the call costs one branch
/// per tile, amortised over the whole `kc`-deep sweep.
#[inline(never)]
fn micro_full<const MR: usize, const NR: usize>(
    kc: usize,
    a_panel: &[f64],
    b_panel: &[f64],
    c: &mut [f64],
    ldc: usize,
    first: bool,
) {
    let mut acc = [[0.0f64; NR]; MR];
    if !first {
        for (r, acc_r) in acc.iter_mut().enumerate() {
            acc_r.copy_from_slice(&c[r * ldc..r * ldc + NR]);
        }
    }
    for p in 0..kc {
        let ap = &a_panel[p * MR..(p + 1) * MR];
        let bp = &b_panel[p * NR..(p + 1) * NR];
        for (r, acc_r) in acc.iter_mut().enumerate() {
            let ar = ap[r];
            for (j, acc_v) in acc_r.iter_mut().enumerate() {
                *acc_v += ar * bp[j];
            }
        }
    }
    for (r, acc_r) in acc.iter().enumerate() {
        c[r * ldc..r * ldc + NR].copy_from_slice(acc_r);
    }
}

/// The edge-tile microkernel: same contract as [`micro_full`] but for
/// partial tiles (`mr_eff ≤ mr`, `nr_eff ≤ nr`). Panels are zero-padded to
/// `mr`/`nr` stride, so only the valid `mr_eff × nr_eff` sub-tile is read
/// from and written to C.
#[allow(clippy::too_many_arguments)]
#[inline(never)]
fn micro_edge(
    mr: usize,
    nr: usize,
    mr_eff: usize,
    nr_eff: usize,
    kc: usize,
    a_panel: &[f64],
    b_panel: &[f64],
    c: &mut [f64],
    ldc: usize,
    first: bool,
) {
    let mut acc = [[0.0f64; MAX_NR]; MAX_MR];
    if !first {
        for (r, acc_r) in acc.iter_mut().enumerate().take(mr_eff) {
            acc_r[..nr_eff].copy_from_slice(&c[r * ldc..r * ldc + nr_eff]);
        }
    }
    for p in 0..kc {
        let ap = &a_panel[p * mr..p * mr + mr_eff];
        let bp = &b_panel[p * nr..p * nr + nr_eff];
        for (r, &ar) in ap.iter().enumerate() {
            for (j, &bv) in bp.iter().enumerate() {
                acc[r][j] += ar * bv;
            }
        }
    }
    for (r, acc_r) in acc.iter().enumerate().take(mr_eff) {
        c[r * ldc..r * ldc + nr_eff].copy_from_slice(&acc_r[..nr_eff]);
    }
}

/// The streaming kernel for thin products: `C (m×n) = A · B` with the
/// logical `m×k` A read at `a[i·rs + p·ps]` and B (`k×n`, row-major) read
/// once, row by row, for every output row of a block. The output is cut
/// into blocks of at most `nc` columns and `mr·nc` values (so a block
/// stays in L1); each block is zeroed and then, for ascending `p`, gets
/// `a(i,p)·B[p,:]` added into each of its rows — four `p` per pass, each
/// element held in a register across its four adds, which are still made
/// one multiply and one add at a time in ascending `p`. Every element is
/// therefore the naive kernel's chain from `0.0`. A tall product (`n < nr`)
/// spreads its row blocks over the threads, cut like the packed driver's
/// row chunks; a short one (`m < mr`) is a single chunk.
#[allow(clippy::too_many_arguments)]
fn gemm_streamed(
    ts: &TilingScheme,
    m: usize,
    k: usize,
    n: usize,
    a: &[f64],
    rs: usize,
    ps: usize,
    b: &[f64],
    out: &mut [f64],
) {
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    let w_max = ts.nc.min(n);
    let block_rows = (ts.mr * ts.nc / w_max).max(1);
    let rows_per_chunk = m
        .div_ceil(ROW_CHUNKS)
        .next_multiple_of(ts.mr)
        .min(block_rows);
    crate::parallel::for_each_row_chunk(out, n, rows_per_chunk, |rows, chunk| {
        for jc in (0..n).step_by(w_max) {
            let w = w_max.min(n - jc);
            for row in chunk.chunks_exact_mut(n) {
                row[jc..][..w].fill(0.0);
            }
            let mut p = 0;
            while p + 4 <= k {
                let b_rows = [0, 1, 2, 3].map(|q| &b[(p + q) * n + jc..][..w]);
                for (i, row) in rows.clone().zip(chunk.chunks_exact_mut(n)) {
                    let [a0, a1, a2, a3] = [0, 1, 2, 3].map(|q| a[i * rs + (p + q) * ps]);
                    for ((((o, &b0), &b1), &b2), &b3) in row[jc..][..w]
                        .iter_mut()
                        .zip(b_rows[0])
                        .zip(b_rows[1])
                        .zip(b_rows[2])
                        .zip(b_rows[3])
                    {
                        let mut v = *o;
                        v += a0 * b0;
                        v += a1 * b1;
                        v += a2 * b2;
                        v += a3 * b3;
                        *o = v;
                    }
                }
                p += 4;
            }
            for p in p..k {
                let b_row = &b[p * n + jc..][..w];
                for (i, row) in rows.clone().zip(chunk.chunks_exact_mut(n)) {
                    let ap = a[i * rs + p * ps];
                    for (o, &bv) in row[jc..][..w].iter_mut().zip(b_row) {
                        *o += ap * bv;
                    }
                }
            }
        }
    });
}

/// Runs the microkernels over one packed `m_eff × nc_eff` block: `a_pack`
/// holds its `mr`-row panels, `b_block` its `nr`-column panels, and `c`
/// starts at the block's top-left element with rows `ldc` apart.
#[allow(clippy::too_many_arguments)]
fn macro_kernel(
    ts: &TilingScheme,
    m_eff: usize,
    nc_eff: usize,
    kc_eff: usize,
    a_pack: &[f64],
    b_block: &[f64],
    c: &mut [f64],
    ldc: usize,
    first: bool,
) {
    let (mr, nr) = (ts.mr, ts.nr);
    for (a_panel, ir) in a_pack.chunks_exact(kc_eff * mr).zip((0..m_eff).step_by(mr)) {
        let mr_eff = mr.min(m_eff - ir);
        for (b_panel, jr) in b_block
            .chunks_exact(kc_eff * nr)
            .zip((0..nc_eff).step_by(nr))
        {
            let nr_eff = nr.min(nc_eff - jr);
            let c_tile = &mut c[ir * ldc + jr..];
            if mr_eff == mr && nr_eff == nr {
                match (mr, nr) {
                    (8, 8) => micro_full::<8, 8>(kc_eff, a_panel, b_panel, c_tile, ldc, first),
                    (4, 8) => micro_full::<4, 8>(kc_eff, a_panel, b_panel, c_tile, ldc, first),
                    (8, 4) => micro_full::<8, 4>(kc_eff, a_panel, b_panel, c_tile, ldc, first),
                    (4, 4) => micro_full::<4, 4>(kc_eff, a_panel, b_panel, c_tile, ldc, first),
                    (2, 8) => micro_full::<2, 8>(kc_eff, a_panel, b_panel, c_tile, ldc, first),
                    _ => micro_edge(
                        mr, nr, mr_eff, nr_eff, kc_eff, a_panel, b_panel, c_tile, ldc, first,
                    ),
                }
            } else {
                micro_edge(
                    mr, nr, mr_eff, nr_eff, kc_eff, a_panel, b_panel, c_tile, ldc, first,
                );
            }
        }
    }
}

/// The packed GEMM driver shared by all three variants: `C (m×n)` from a
/// logical `m×k` A and `k×n` B, each read through its own storage layout
/// (see [`pack_a`]/[`pack_b`]).
///
/// The reduction runs in `kc`-deep steps. Each step packs its rows of B —
/// every `nc`-wide block, side by side — once, on the calling thread, into
/// a retained buffer that all row chunks then read, so every element of B
/// is packed once per call. A row chunk is one A block: `m / ROW_CHUNKS`
/// rows rounded up to a multiple of `mr`, at least `mr` and at most `mc`.
/// Chunk boundaries so depend only on `m` and the scheme (determinism
/// across thread counts), and no register tile straddles two chunks.
#[allow(clippy::too_many_arguments)]
fn gemm_blocked(
    ts: &TilingScheme,
    m: usize,
    k: usize,
    n: usize,
    a: &[f64],
    a_trans: bool,
    lda: usize,
    b: &[f64],
    b_trans: bool,
    ldb: usize,
    out: &mut [f64],
) {
    debug_assert_eq!(out.len(), m * n);
    if k == 0 {
        // An empty reduction: the naive kernels assign 0.0 everywhere.
        out.fill(0.0);
        return;
    }
    let TilingScheme { mc, kc, nc, mr, nr } = *ts;
    let n_padded: usize = (0..n)
        .step_by(nc)
        .map(|jc| b_block_len(1, nc.min(n - jc), nr))
        .sum();
    let rows_per_chunk = m.div_ceil(ROW_CHUNKS).next_multiple_of(mr).clamp(mr, mc);
    B_PACK.with(|b_pack| {
        let mut b_pack = b_pack.borrow_mut();
        for pc in (0..k).step_by(kc) {
            let kc_eff = kc.min(k - pc);
            let b_step = panel_slice(&mut b_pack, kc_eff * n_padded);
            let mut off = 0;
            for jc in (0..n).step_by(nc) {
                let nc_eff = nc.min(n - jc);
                let len = b_block_len(kc_eff, nc_eff, nr);
                pack_b(
                    &mut b_step[off..off + len],
                    b,
                    b_trans,
                    ldb,
                    jc,
                    nc_eff,
                    pc,
                    kc_eff,
                    nr,
                );
                off += len;
            }
            let b_step = &*b_step;
            crate::parallel::for_each_row_chunk(out, n, rows_per_chunk, |rows, chunk| {
                A_PACK.with(|a_pack| {
                    let mut a_pack = a_pack.borrow_mut();
                    let m_eff = rows.len();
                    let a_block = panel_slice(&mut a_pack, m_eff.div_ceil(mr) * kc_eff * mr);
                    pack_a(a_block, a, a_trans, lda, rows.start, m_eff, pc, kc_eff, mr);
                    let mut off = 0;
                    for jc in (0..n).step_by(nc) {
                        let nc_eff = nc.min(n - jc);
                        let len = b_block_len(kc_eff, nc_eff, nr);
                        let b_block = &b_step[off..off + len];
                        let c = &mut chunk[jc..];
                        macro_kernel(ts, m_eff, nc_eff, kc_eff, a_block, b_block, c, n, pc == 0);
                        off += len;
                    }
                });
            });
        }
    });
}

/// Rows of the conv register tile: output channels in the forward, input
/// channels in `grad_input` and the weight gradient.
const CONV_MR: usize = 8;
/// Widest conv tile: time steps in the forward and `grad_input`, output
/// channels in the weight gradient.
const CONV_NR: usize = 8;

/// One reduction step of a conv tile: the `CONV_MR` packed weights at `a`
/// in the panel times the `NR` values at `b` in the source row. A table of
/// these is the implicit im2col: the B operand is never materialised.
struct Tap {
    a: usize,
    b: usize,
}

/// Output columns `lo..hi` that share one set of in-range taps, listed in
/// `taps` with B offsets relative to `lo`: a tile at column `t` reads the
/// source row from `t - lo`.
struct ColGroup {
    lo: usize,
    hi: usize,
    taps: std::ops::Range<usize>,
}

/// One conv call's operands, built once on the calling thread and shared
/// read-only with every row chunk: the weights packed into `CONV_MR`-row
/// panels (p-major, rows past the matrix zero-padded), the tap table and
/// the column groups that index it.
struct ConvPlan {
    a: Vec<f64>,
    panel_len: usize,
    taps: Vec<Tap>,
    groups: Vec<ColGroup>,
}

impl ConvPlan {
    /// Packs the `m × (n·k)` matrix `A(row, j·k + tap) = w[row·rs + j·js +
    /// tap]` into panels and clears the tables.
    fn reset(&mut self, w: &[f64], m: usize, n: usize, k: usize, rs: usize, js: usize) {
        self.panel_len = n * k * CONV_MR;
        self.a.clear();
        self.a.resize(m.div_ceil(CONV_MR) * self.panel_len, 0.0);
        for (pi, panel) in self.a.chunks_exact_mut(self.panel_len).enumerate() {
            for r in 0..CONV_MR.min(m - pi * CONV_MR) {
                let w_r = &w[(pi * CONV_MR + r) * rs..];
                for j in 0..n {
                    for tap in 0..k {
                        panel[(j * k + tap) * CONV_MR + r] = w_r[j * js + tap];
                    }
                }
            }
        }
        self.taps.clear();
        self.groups.clear();
    }

    /// Adds the column group `lo..hi` (skipped when empty) with its taps.
    fn group(&mut self, lo: usize, hi: usize, taps: impl Iterator<Item = Tap>) {
        if lo < hi {
            let start = self.taps.len();
            self.taps.extend(taps);
            self.groups.push(ColGroup {
                lo,
                hi,
                taps: start..self.taps.len(),
            });
        }
    }

    /// The forward as a per-row GEMM: `out(o, t) = bias(o) + Σ_p W(o, p) ·
    /// x(c, t − back(tap))` over `p = (c, tap)` in c-major order. Group `j`
    /// of the causal head (`t ∈ [j·dil, (j+1)·dil)`) keeps only the taps
    /// `tap ≥ k−1−j` whose input is in range; the last group is the
    /// interior `t ≥ (k−1)·dil`, where every tap is.
    fn forward(&mut self, geo: &Conv1dGeometry, w: &[f64]) {
        let (t_len, k, dil, in_ch) = (geo.time_len, geo.kernel, geo.dilation, geo.in_ch);
        self.reset(w, geo.out_ch, in_ch, k, in_ch * k, k);
        for j in 0..k {
            let (lo, hi) = if j + 1 < k {
                (j * dil, ((j + 1) * dil).min(t_len))
            } else {
                ((k - 1) * dil, t_len)
            };
            let taps = (0..in_ch).flat_map(|c| {
                (k - 1 - j..k).map(move |tap| Tap {
                    a: (c * k + tap) * CONV_MR,
                    b: c * t_len + lo - (k - 1 - tap) * dil,
                })
            });
            self.group(lo, hi, taps);
        }
    }

    /// `grad_input` as the same GEMM: `gx(c, u) = Σ_q W(o, c, tap) ·
    /// g(o, u + back(tap))` over `q = (o, tap)` in o-major order. Group `j`
    /// of the tail (`u ∈ [T − (j+1)·dil, T − j·dil)`) keeps the taps
    /// `tap ≥ k−1−j` whose gradient is in range; the last group is the
    /// interior `u < T − (k−1)·dil`.
    fn grad_input(&mut self, geo: &Conv1dGeometry, w: &[f64]) {
        let (t_len, k, dil) = (geo.time_len, geo.kernel, geo.dilation);
        let (in_ch, out_ch) = (geo.in_ch, geo.out_ch);
        self.reset(w, in_ch, out_ch, k, k, in_ch * k);
        for j in 0..k {
            let (lo, hi) = if j + 1 < k {
                (
                    t_len.saturating_sub((j + 1) * dil),
                    t_len.saturating_sub(j * dil),
                )
            } else {
                (0, t_len.saturating_sub((k - 1) * dil))
            };
            let taps = (0..out_ch).flat_map(|o| {
                (k - 1 - j..k).map(move |tap| Tap {
                    a: (o * k + tap) * CONV_MR,
                    b: o * t_len + lo + (k - 1 - tap) * dil,
                })
            });
            self.group(lo, hi, taps);
        }
    }

    /// Runs the plan over one batch row: `dst` is the `m × t_len` output
    /// row, already holding each element's seed (the bias, or the zeroed
    /// `grad_input`), and `src` the row the taps read. Every column group
    /// is cut into tiles of 8, 4, 2 and 1 columns, so each element is
    /// computed once and no tile reads past its group.
    fn sweep(&self, m: usize, t_len: usize, src: &[f64], dst: &mut [f64]) {
        for (pi, panel) in self.a.chunks_exact(self.panel_len).enumerate() {
            let rows = CONV_MR.min(m - pi * CONV_MR);
            let dst = &mut dst[pi * CONV_MR * t_len..];
            for g in &self.groups {
                let taps = &self.taps[g.taps.clone()];
                let mut t = g.lo;
                while t < g.hi {
                    let (b, c) = (&src[t - g.lo..], &mut dst[t..]);
                    t += match g.hi - t {
                        8.. => conv_tile::<8>(panel, taps, b, c, t_len, rows),
                        4..=7 => conv_tile::<4>(panel, taps, b, c, t_len, rows),
                        2 | 3 => conv_tile::<2>(panel, taps, b, c, t_len, rows),
                        _ => conv_tile::<1>(panel, taps, b, c, t_len, rows),
                    };
                }
            }
        }
    }
}

thread_local! {
    /// Per-thread conv plan, grown on first use and retained.
    static CONV_PLAN: RefCell<ConvPlan> = const {
        RefCell::new(ConvPlan {
            a: Vec::new(),
            panel_len: 0,
            taps: Vec::new(),
            groups: Vec::new(),
        })
    };
    /// Per-thread weight-gradient row panels (input, grad), grown on first
    /// use and retained.
    static CONV_ROW_BUFS: RefCell<(Vec<f64>, Vec<f64>)> =
        const { RefCell::new((Vec::new(), Vec::new())) };
}

/// The conv register tile: `CONV_MR` rows × `NR` time columns, one
/// accumulator lane per output element. The lanes load their seeds from C,
/// run the taps in table order — one multiply, then one add, per tap, the
/// naive kernel's per-element sequence — and store back the `rows` valid
/// rows (panel rows past the matrix compute on zero weights and are
/// dropped). Returns `NR`, the columns it covered.
///
/// `inline(never)` for the reason given on [`micro_full`]: as one
/// standalone symbol per width the tile keeps its accumulators in vector
/// registers (`vmulpd`/`vaddpd` across the `NR` lanes).
#[inline(never)]
fn conv_tile<const NR: usize>(
    a_panel: &[f64],
    taps: &[Tap],
    b: &[f64],
    c: &mut [f64],
    ldc: usize,
    rows: usize,
) -> usize {
    let mut acc = [[0.0f64; NR]; CONV_MR];
    for (r, acc_r) in acc.iter_mut().enumerate().take(rows) {
        acc_r.copy_from_slice(&c[r * ldc..r * ldc + NR]);
    }
    for tap in taps {
        let ap = &a_panel[tap.a..tap.a + CONV_MR];
        let bp = &b[tap.b..tap.b + NR];
        for (r, acc_r) in acc.iter_mut().enumerate() {
            let ar = ap[r];
            for (j, acc_v) in acc_r.iter_mut().enumerate() {
                *acc_v += ar * bp[j];
            }
        }
    }
    for (r, acc_r) in acc.iter().enumerate().take(rows) {
        c[r * ldc..r * ldc + NR].copy_from_slice(acc_r);
    }
    NR
}

/// Packs the `m × t_len` row `src` into `lanes`-row panels, t-major:
/// `dst[panel·(t_len·lanes) + t·lanes + r] = src[(panel·lanes + r)·t_len + t]`,
/// zero-padded past row `m`.
fn pack_time_major(dst: &mut Vec<f64>, src: &[f64], m: usize, t_len: usize, lanes: usize) {
    dst.clear();
    dst.resize(m.div_ceil(lanes) * t_len * lanes, 0.0);
    for (row, src_row) in src.chunks_exact(t_len).enumerate() {
        let panel = &mut dst[(row / lanes) * t_len * lanes..];
        for (t, &v) in src_row.iter().enumerate() {
            panel[t * lanes + row % lanes] = v;
        }
    }
}

/// One row's weight gradient, added into the chunk partial `dw_t` (stored
/// transposed, `[(c·k + tap)·out_ch + o]`). Per tap it is the GEMM
/// `Σ_u x(c, u) · g(o, u + back(tap))` over `u ∈ [0, T − back(tap))`, run
/// by [`micro_full`] with input channels as rows and output channels as
/// lanes: each `(o, c, tap)` chain starts at 0.0 and runs in ascending `u`,
/// then is added to the partial, as in the naive kernel.
fn conv_dw_row(
    geo: &Conv1dGeometry,
    x_row: &[f64],
    g_row: &[f64],
    bufs: &mut (Vec<f64>, Vec<f64>),
    dw_t: &mut [f64],
) {
    let (t_len, k, dil) = (geo.time_len, geo.kernel, geo.dilation);
    let (in_ch, out_ch) = (geo.in_ch, geo.out_ch);
    let (xp, gp) = bufs;
    pack_time_major(xp, x_row, in_ch, t_len, CONV_MR);
    pack_time_major(gp, g_row, out_ch, t_len, CONV_NR);
    let mut tile = [0.0f64; CONV_MR * CONV_NR];
    for tap in 0..k {
        let back = ((k - 1 - tap) * dil).min(t_len);
        let kc = t_len - back;
        for (cp, x_panel) in xp.chunks_exact(t_len * CONV_MR).enumerate() {
            let c0 = cp * CONV_MR;
            for (op, g_panel) in gp.chunks_exact(t_len * CONV_NR).enumerate() {
                let o0 = op * CONV_NR;
                micro_full::<CONV_MR, CONV_NR>(
                    kc,
                    x_panel,
                    &g_panel[back * CONV_NR..],
                    &mut tile,
                    CONV_NR,
                    true,
                );
                let cols = CONV_NR.min(out_ch - o0);
                for (r, tile_r) in tile.chunks_exact(CONV_NR).take(in_ch - c0).enumerate() {
                    let dst = &mut dw_t[((c0 + r) * k + tap) * out_ch + o0..][..cols];
                    for (d, &v) in dst.iter_mut().zip(tile_r) {
                        *d += v;
                    }
                }
            }
        }
    }
}

/// Causal conv forward on the conv tile (see [`ConvPlan::forward`]).
/// Parallel over row chunks; each row is seeded with the bias and swept
/// with the plan built once for the call.
fn conv1d_forward_tiled(
    geo: &Conv1dGeometry,
    input: &Tensor,
    w: &[f64],
    bias: &[f64],
    out: &mut Tensor,
) {
    let (t_len, out_ch) = (geo.time_len, geo.out_ch);
    let out_width = geo.output_width();
    let flops_per_row = 2 * out_ch * geo.in_ch * geo.kernel * t_len;
    let rows_per_chunk = kernel_rows_per_chunk(input.rows(), flops_per_row);
    CONV_PLAN.with(|plan| {
        let mut plan = plan.borrow_mut();
        plan.forward(geo, w);
        let plan = &*plan;
        crate::parallel::for_each_row_chunk(
            out.as_mut_slice(),
            out_width,
            rows_per_chunk,
            |rows, chunk| {
                for (r, y_row) in rows.zip(chunk.chunks_exact_mut(out_width)) {
                    for (y_o, &b) in y_row.chunks_exact_mut(t_len).zip(bias) {
                        y_o.fill(b);
                    }
                    plan.sweep(out_ch, t_len, input.row(r), y_row);
                }
            },
        );
    });
}

/// Causal conv backward: `grad_input` on the conv tile (see
/// [`ConvPlan::grad_input`]), the weight gradient through
/// [`conv_dw_row`], and the bias gradient as the naive row sums. Chunking
/// (8 rows), the per-chunk `dw ++ db` partials and their chunk-order
/// combine are the naive kernel's, so the gradients are bit-identical for
/// any thread count.
#[allow(clippy::too_many_arguments)]
fn conv1d_backward_tiled(
    geo: &Conv1dGeometry,
    input: &Tensor,
    grad_output: &Tensor,
    w: &[f64],
    dw: &mut [f64],
    db: &mut [f64],
    grad_input: &mut Tensor,
    scratch: &mut Scratch,
) {
    let (t_len, k) = (geo.time_len, geo.kernel);
    let (in_ch, out_ch) = (geo.in_ch, geo.out_ch);
    let in_width = geo.input_width();

    const ROWS_PER_CHUNK: usize = 8;
    let n_chunks = crate::parallel::chunk_count(input.rows(), ROWS_PER_CHUNK);
    let aux_per_chunk = w.len() + out_ch;
    let mut aux = scratch.take_vec(n_chunks * aux_per_chunk);
    CONV_PLAN.with(|plan| {
        let mut plan = plan.borrow_mut();
        plan.grad_input(geo, w);
        let plan = &*plan;
        crate::parallel::for_each_row_chunk_with_aux(
            grad_input.as_mut_slice(),
            in_width,
            ROWS_PER_CHUNK,
            &mut aux,
            aux_per_chunk,
            |rows, gx_chunk, partial| {
                let (dw_t, db_local) = partial.split_at_mut(w.len());
                CONV_ROW_BUFS.with(|bufs| {
                    let bufs = &mut *bufs.borrow_mut();
                    for (r, gx_row) in rows.zip(gx_chunk.chunks_exact_mut(in_width)) {
                        let g_row = grad_output.row(r);
                        plan.sweep(in_ch, t_len, g_row, gx_row);
                        for (acc, g_o) in db_local.iter_mut().zip(g_row.chunks_exact(t_len)) {
                            *acc += g_o.iter().sum::<f64>();
                        }
                        conv_dw_row(geo, input.row(r), g_row, bufs, dw_t);
                    }
                });
            },
        );
    });
    for partial in aux.chunks_exact(aux_per_chunk) {
        let (dw_t, db_local) = partial.split_at(w.len());
        for (o, dw_o) in dw.chunks_exact_mut(in_ch * k).enumerate() {
            for (ct, acc) in dw_o.iter_mut().enumerate() {
                *acc += dw_t[ct * out_ch + o];
            }
        }
        for (acc, v) in db.iter_mut().zip(db_local) {
            *acc += v;
        }
    }
    scratch.give_vec(aux);
}

impl Backend for CpuBlocked {
    fn name(&self) -> &'static str {
        "blocked"
    }

    fn matmul_into(&self, m: usize, k: usize, n: usize, a: &[f64], b: &[f64], out: &mut [f64]) {
        match self.arm(m, k, n) {
            Arm::Packed => gemm_blocked(&self.tiling, m, k, n, a, false, k, b, false, n, out),
            Arm::Thin if m < self.tiling.mr => {
                gemm_streamed(&self.tiling, m, k, n, a, k, 1, b, out)
            }
            Arm::Thin | Arm::Small => naive::matmul_into(m, k, n, a, b, out),
        }
    }

    fn t_matmul_into(&self, m: usize, k: usize, n: usize, a: &[f64], b: &[f64], out: &mut [f64]) {
        // A is stored k×m: the packer reads it transposed (lda = m), and
        // the streaming kernel at a(i, p) = a[p·m + i].
        match self.arm(m, k, n) {
            Arm::Packed => gemm_blocked(&self.tiling, m, k, n, a, true, m, b, false, n, out),
            Arm::Thin => gemm_streamed(&self.tiling, m, k, n, a, 1, m, b, out),
            Arm::Small => naive::t_matmul_into(m, k, n, a, b, out),
        }
    }

    fn matmul_t_into(&self, m: usize, k: usize, n: usize, a: &[f64], b: &[f64], out: &mut [f64]) {
        if self.arm(m, k, n) == Arm::Packed {
            // B is stored n×k; the packer reads it transposed (ldb = k).
            gemm_blocked(&self.tiling, m, k, n, a, false, k, b, true, k, out);
        } else {
            naive::matmul_t_into(m, k, n, a, b, out);
        }
    }

    fn conv1d_forward(
        &self,
        geo: &Conv1dGeometry,
        input: &Tensor,
        w: &[f64],
        bias: &[f64],
        out: &mut Tensor,
    ) {
        conv1d_forward_tiled(geo, input, w, bias, out);
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
        conv1d_backward_tiled(geo, input, grad_output, w, dw, db, grad_input, scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    fn fill_seq(n: usize, rng: &mut Rng) -> Vec<f64> {
        (0..n).map(|_| rng.uniform(-1.0, 1.0)).collect()
    }

    fn assert_bits_eq(a: &[f64], b: &[f64], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: length mismatch");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{what}: bit mismatch at {i}: {x} vs {y}"
            );
        }
    }

    /// Shapes chosen to force every code path: above/below the blocking
    /// cutoff, edge tiles on both axes, multiple kc-blocks, prime sizes.
    fn gemm_shapes() -> Vec<(usize, usize, usize)> {
        vec![
            (1, 1, 1),
            (3, 5, 7),
            (64, 300, 64),  // above cutoff, two kc-blocks via k=300
            (130, 257, 67), // prime-ish, edge tiles everywhere
            (256, 64, 80),  // eight row chunks of 32 rows
            (8, 600, 520),  // nc wrap (nc=512) and three kc-blocks
            (1, 512, 512),  // thin, exactly on the cutoff
            (5, 300, 520),  // thin rows, streamed in two column blocks
            (600, 256, 3),  // thin columns, streamed in row blocks
        ]
    }

    #[test]
    fn arms_follow_the_register_tile() {
        let blocked = CpuBlocked::default();
        for ((m, k, n), arm) in [
            ((1, 511, 512), Arm::Small),
            ((1, 512, 512), Arm::Thin),
            ((7, 512, 512), Arm::Thin),
            ((8, 512, 512), Arm::Packed),
            ((2048, 512, 7), Arm::Thin),
            ((2048, 512, 8), Arm::Packed),
            ((16, 16, 16), Arm::Small),
        ] {
            assert_eq!(blocked.arm(m, k, n), arm, "{m}x{k}x{n}");
        }
    }

    /// Every slot the packers hand out is assigned: data where the source
    /// has it and `+0.0` in the padding, whatever the retained buffer held.
    #[test]
    fn packers_assign_every_slot_padding_included() {
        let (mr, nr) = (8, 8);
        let (rows, cols) = (13, 11); // logical block, ragged on both axes
        let src: Vec<f64> = (0..rows * cols).map(|v| v as f64 + 1.0).collect();
        let at = |r: usize, c: usize| src[r * cols + c];
        let src_t: Vec<f64> = (0..cols * rows).map(|i| at(i % rows, i / rows)).collect();
        for trans in [false, true] {
            // A: the 13×11 block as m×k; stored k×m when transposed.
            let (a, lda) = if trans { (&src_t, rows) } else { (&src, cols) };
            let mut buf = vec![f64::NAN; 4 * mr * cols];
            let dst = &mut buf[..rows.div_ceil(mr) * cols * mr];
            pack_a(dst, a, trans, lda, 0, rows, 0, cols, mr);
            for (i, &v) in dst.iter().enumerate() {
                let (pi, p, r) = (i / (cols * mr), i % (cols * mr) / mr, i % mr);
                let want = if pi * mr + r < rows {
                    at(pi * mr + r, p)
                } else {
                    0.0
                };
                assert_eq!(v.to_bits(), want.to_bits(), "pack_a trans={trans} slot {i}");
            }
            // B: the same block as k×n; stored n×k when transposed.
            let (b, ldb) = if trans { (&src_t, rows) } else { (&src, cols) };
            let mut buf = vec![f64::NAN; 4 * nr * rows];
            let dst = &mut buf[..b_block_len(rows, cols, nr)];
            pack_b(dst, b, trans, ldb, 0, cols, 0, rows, nr);
            for (i, &v) in dst.iter().enumerate() {
                let (pj, p, j) = (i / (rows * nr), i % (rows * nr) / nr, i % nr);
                let want = if pj * nr + j < cols {
                    at(p, pj * nr + j)
                } else {
                    0.0
                };
                assert_eq!(v.to_bits(), want.to_bits(), "pack_b trans={trans} slot {i}");
            }
        }
    }

    #[test]
    fn blocked_matmul_bits_match_naive() {
        let blocked = CpuBlocked::default();
        let mut rng = Rng::new(42);
        for (m, k, n) in gemm_shapes() {
            let a = fill_seq(m * k, &mut rng);
            let b = fill_seq(k * n, &mut rng);
            let mut got = vec![f64::NAN; m * n];
            let mut want = vec![f64::NAN; m * n];
            blocked.matmul_into(m, k, n, &a, &b, &mut got);
            naive::matmul_into(m, k, n, &a, &b, &mut want);
            assert_bits_eq(&got, &want, &format!("matmul {m}x{k}x{n}"));
        }
    }

    #[test]
    fn blocked_t_matmul_bits_match_naive() {
        let blocked = CpuBlocked::default();
        let mut rng = Rng::new(43);
        for (m, k, n) in gemm_shapes() {
            let a = fill_seq(k * m, &mut rng);
            let b = fill_seq(k * n, &mut rng);
            let mut got = vec![f64::NAN; m * n];
            let mut want = vec![f64::NAN; m * n];
            blocked.t_matmul_into(m, k, n, &a, &b, &mut got);
            naive::t_matmul_into(m, k, n, &a, &b, &mut want);
            assert_bits_eq(&got, &want, &format!("t_matmul {m}x{k}x{n}"));
        }
    }

    #[test]
    fn blocked_matmul_t_bits_match_naive() {
        let blocked = CpuBlocked::default();
        let mut rng = Rng::new(44);
        for (m, k, n) in gemm_shapes() {
            let a = fill_seq(m * k, &mut rng);
            let b = fill_seq(n * k, &mut rng);
            let mut got = vec![f64::NAN; m * n];
            let mut want = vec![f64::NAN; m * n];
            blocked.matmul_t_into(m, k, n, &a, &b, &mut got);
            naive::matmul_t_into(m, k, n, &a, &b, &mut want);
            assert_bits_eq(&got, &want, &format!("matmul_t {m}x{k}x{n}"));
        }
    }

    #[test]
    fn degenerate_k_zero_defines_all_cells() {
        let blocked = CpuBlocked::default();
        let mut out = vec![f64::NAN; 6];
        // Below the cutoff this routes to naive; force the blocked driver
        // too so both guards are exercised.
        blocked.matmul_into(2, 0, 3, &[], &[], &mut out);
        assert!(out.iter().all(|&v| v == 0.0));
        let mut out2 = vec![f64::NAN; 6];
        gemm_blocked(
            &TilingScheme::DEFAULT,
            2,
            0,
            3,
            &[],
            false,
            0,
            &[],
            false,
            3,
            &mut out2,
        );
        assert!(out2.iter().all(|&v| v == 0.0));
        let mut out3 = vec![f64::NAN; 6];
        gemm_streamed(&TilingScheme::DEFAULT, 2, 0, 3, &[], 0, 1, &[], &mut out3);
        assert!(out3.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn odd_tiling_schemes_stay_bit_identical() {
        // Deliberately awkward schemes: tiny blocks, mismatched mr/nr, and
        // a specialised-pair miss (3×5 goes through micro_edge only).
        let schemes = [
            TilingScheme {
                mc: 8,
                kc: 16,
                nc: 24,
                mr: 2,
                nr: 8,
            },
            TilingScheme {
                mc: 13,
                kc: 7,
                nc: 11,
                mr: 3,
                nr: 5,
            },
            TilingScheme {
                mc: 32,
                kc: 50,
                nc: 64,
                mr: 8,
                nr: 4,
            },
        ];
        let mut rng = Rng::new(45);
        let (m, k, n) = (37, 53, 41);
        let a = fill_seq(m * k, &mut rng);
        let b = fill_seq(k * n, &mut rng);
        let mut want = vec![f64::NAN; m * n];
        naive::matmul_into(m, k, n, &a, &b, &mut want);
        let a_t: Vec<f64> = (0..k * m).map(|i| a[(i % m) * k + i / m]).collect();
        for ts in schemes {
            let ts = ts.validated();
            let mut got = vec![f64::NAN; m * n];
            gemm_blocked(&ts, m, k, n, &a, false, k, &b, false, n, &mut got);
            assert_bits_eq(&got, &want, &format!("scheme {ts:?}"));
            // The streaming kernel cuts its column and row blocks from the
            // scheme too; read A as stored (matmul) and transposed
            // (t_matmul).
            for (a, rs, ps) in [(&a, k, 1), (&a_t, 1, m)] {
                let mut got = vec![f64::NAN; m * n];
                gemm_streamed(&ts, m, k, n, a, rs, ps, &b, &mut got);
                assert_bits_eq(&got, &want, &format!("streamed rs={rs} {ts:?}"));
            }
        }
    }

    #[test]
    #[should_panic(expected = "TilingScheme")]
    fn tiling_rejects_oversized_register_tile() {
        let _ = TilingScheme {
            mc: 64,
            kc: 64,
            nc: 64,
            mr: 9,
            nr: 8,
        }
        .validated();
    }

    #[test]
    fn conv_bits_match_naive_for_every_kernel_size() {
        let blocked = CpuBlocked::default();
        let mut rng = Rng::new(46);
        // Every kernel size and dilation up to 5 (so every causal head and
        // tail group), windows shorter than the causal reach, channel counts
        // off and across the 8-row register panel, batches across the 8-row
        // backward chunk, and gradients accumulated onto non-zero `dw`/`db`.
        for kernel in 1..=5 {
            for dil in 1..=5 {
                for (t_len, in_ch, out_ch, batch) in [(20, 4, 6, 9), (3, 11, 17, 17), (13, 8, 1, 3)]
                {
                    let geo = Conv1dGeometry {
                        in_ch,
                        out_ch,
                        kernel,
                        dilation: dil,
                        time_len: t_len,
                    };
                    let what = format!("k={kernel} d={dil} t={t_len} {in_ch}->{out_ch} b={batch}");
                    let input = Tensor::from_vec(
                        batch,
                        geo.input_width(),
                        fill_seq(batch * geo.input_width(), &mut rng),
                    );
                    let w = fill_seq(geo.weight_len(), &mut rng);
                    let bias = fill_seq(geo.out_ch, &mut rng);
                    // NaN-prefilled: the forward must assign every cell.
                    let mut got = Tensor::full(batch, geo.output_width(), f64::NAN);
                    let mut want = Tensor::full(batch, geo.output_width(), f64::NAN);
                    blocked.conv1d_forward(&geo, &input, &w, &bias, &mut got);
                    naive::conv1d_forward(&geo, &input, &w, &bias, &mut want);
                    assert_bits_eq(got.as_slice(), want.as_slice(), &format!("fwd {what}"));

                    let grad_out = Tensor::from_vec(
                        batch,
                        geo.output_width(),
                        fill_seq(batch * geo.output_width(), &mut rng),
                    );
                    let mut scratch = Scratch::new();
                    let dw0 = fill_seq(geo.weight_len(), &mut rng);
                    let db0 = fill_seq(geo.out_ch, &mut rng);
                    let (mut dw_g, mut db_g) = (dw0.clone(), db0.clone());
                    let (mut dw_w, mut db_w) = (dw0, db0);
                    let mut gx_g = Tensor::zeros(batch, geo.input_width());
                    let mut gx_w = Tensor::zeros(batch, geo.input_width());
                    blocked.conv1d_backward(
                        &geo,
                        &input,
                        &grad_out,
                        &w,
                        &mut dw_g,
                        &mut db_g,
                        &mut gx_g,
                        &mut scratch,
                    );
                    naive::conv1d_backward(
                        &geo,
                        &input,
                        &grad_out,
                        &w,
                        &mut dw_w,
                        &mut db_w,
                        &mut gx_w,
                        &mut scratch,
                    );
                    assert_bits_eq(&dw_g, &dw_w, &format!("dw {what}"));
                    assert_bits_eq(&db_g, &db_w, &format!("db {what}"));
                    assert_bits_eq(gx_g.as_slice(), gx_w.as_slice(), &format!("gx {what}"));
                }
            }
        }
    }
}

#[cfg(test)]
mod tune {
    //! An `--ignored` tuning harness, not a correctness test: prints the
    //! naive-vs-blocked head-to-head at 256^3 for a palette of tiling
    //! schemes. Run on a quiet machine with
    //! `cargo test --release -p tasfar-nn --lib tune_gemm -- --ignored --nocapture`
    //! when revisiting `TilingScheme::DEFAULT`. Minimum-of-samples timing:
    //! on a shared host the smallest sample is the least-perturbed one.

    use super::*;
    use crate::rng::Rng;
    use std::time::Instant;

    #[test]
    #[ignore]
    fn tune_gemm_256() {
        let mut rng = Rng::new(7);
        let (m, k, n) = (256, 256, 256);
        let a: Vec<f64> = (0..m * k).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let b: Vec<f64> = (0..k * n).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let mut out = vec![0.0; m * n];
        let reps = 8;

        let mut time = |f: &mut dyn FnMut(&mut [f64])| {
            f(&mut out); // warmup
            let mut best = f64::INFINITY;
            for _ in 0..5 {
                let t0 = Instant::now();
                for _ in 0..reps {
                    f(&mut out);
                }
                best = best.min(t0.elapsed().as_nanos() as f64 / reps as f64);
            }
            best
        };

        let naive_ns = time(&mut |o| naive::matmul_into(m, k, n, &a, &b, o));
        println!("naive            {naive_ns:>12.0} ns");
        for ts in [
            TilingScheme::DEFAULT,
            TilingScheme {
                mc: 128,
                kc: 128,
                nc: 512,
                mr: 8,
                nr: 8,
            },
            TilingScheme {
                mc: 256,
                kc: 256,
                nc: 256,
                mr: 8,
                nr: 8,
            },
            TilingScheme {
                mc: 256,
                kc: 128,
                nc: 512,
                mr: 8,
                nr: 8,
            },
            TilingScheme {
                mc: 64,
                kc: 256,
                nc: 512,
                mr: 8,
                nr: 8,
            },
            TilingScheme {
                mc: 128,
                kc: 256,
                nc: 512,
                mr: 4,
                nr: 8,
            },
        ] {
            let ns = time(&mut |o| gemm_blocked(&ts, m, k, n, &a, false, k, &b, false, n, o));
            println!(
                "mc{:<4} kc{:<4} nc{:<4} {}x{} {:>12.0} ns  {:>5.2}x",
                ts.mc,
                ts.kc,
                ts.nc,
                ts.mr,
                ts.nr,
                ns,
                naive_ns / ns
            );
        }
    }
}
