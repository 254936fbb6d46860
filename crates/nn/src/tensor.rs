//! A dense, row-major, two-dimensional `f64` tensor.
//!
//! All models in this workspace operate on mini-batches laid out as
//! `(batch, features)` matrices, so a 2-D tensor is the only shape the
//! substrate needs. Higher-rank data (e.g. the `(channels, time)` windows
//! consumed by [`crate::layers::Conv1d`]) is packed into the feature axis
//! with an explicit shape contract documented on the consuming layer.
//!
//! Operations follow the conventions of the Rust Performance Book: hot loops
//! index flat slices (no per-element bounds re-checking through nested
//! indexing), allocation is hoisted out of inner loops, and in-place
//! variants (`*_assign`) are provided wherever the training loop would
//! otherwise allocate per step.

use crate::rng::Rng;
use std::fmt;

/// Output rows per parallel chunk for the matmul-family kernels.
///
/// Depends only on the problem size — never the thread count — per the
/// determinism contract of [`crate::parallel`]. Two forces: chunks should
/// carry enough arithmetic (≥ ~16k flops) to amortise scheduling, and there
/// should be at most ~32 chunks so the queue stays short.
pub(crate) fn kernel_rows_per_chunk(rows: usize, flops_per_row: usize) -> usize {
    let by_work = (16_384 / flops_per_row.max(1)).max(1);
    let by_count = rows.div_ceil(32).max(1);
    by_work.max(by_count)
}

/// A dense row-major matrix of `f64` values.
///
/// Invariant: `data.len() == rows * cols` at all times.
#[derive(Clone, PartialEq)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Tensor {}x{} [", self.rows, self.cols)?;
        let max_rows = 6.min(self.rows);
        for r in 0..max_rows {
            let row = self.row(r);
            let shown: Vec<String> = row.iter().take(8).map(|v| format!("{v:.4}")).collect();
            let ellipsis = if self.cols > 8 { ", …" } else { "" };
            writeln!(f, "  [{}{}]", shown.join(", "), ellipsis)?;
        }
        if self.rows > max_rows {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

impl Tensor {
    // ----- constructors -------------------------------------------------

    /// A `rows × cols` tensor of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Tensor {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// A `rows × cols` tensor filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f64) -> Self {
        Tensor {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Builds a tensor from a flat row-major vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "from_vec: {} values cannot fill a {rows}x{cols} tensor",
            data.len()
        );
        Tensor { rows, cols, data }
    }

    /// Builds a tensor from nested row slices.
    ///
    /// # Panics
    /// Panics if the rows are ragged.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(r * c);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(
                row.len(),
                c,
                "from_rows: row {i} has length {} != {c}",
                row.len()
            );
            data.extend_from_slice(row);
        }
        Tensor {
            rows: r,
            cols: c,
            data,
        }
    }

    /// A single-row tensor (a batch of one).
    pub fn row_vector(values: &[f64]) -> Self {
        Tensor::from_vec(1, values.len(), values.to_vec())
    }

    /// A single-column tensor.
    pub fn col_vector(values: &[f64]) -> Self {
        Tensor::from_vec(values.len(), 1, values.to_vec())
    }

    /// Builds a tensor by evaluating `f(row, col)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Tensor { rows, cols, data }
    }

    /// Entries drawn i.i.d. from `U[lo, hi)`.
    pub fn rand_uniform(rows: usize, cols: usize, lo: f64, hi: f64, rng: &mut Rng) -> Self {
        let data = (0..rows * cols).map(|_| rng.uniform(lo, hi)).collect();
        Tensor { rows, cols, data }
    }

    /// Entries drawn i.i.d. from `N(mean, std²)`.
    pub fn rand_normal(rows: usize, cols: usize, mean: f64, std: f64, rng: &mut Rng) -> Self {
        let data = (0..rows * cols).map(|_| rng.gaussian(mean, std)).collect();
        Tensor { rows, cols, data }
    }

    /// The `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut t = Tensor::zeros(n, n);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    // ----- shape accessors ----------------------------------------------

    /// Number of rows (the batch axis by convention).
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (the feature axis by convention).
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor holds no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The flat row-major backing slice.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// The flat row-major backing slice, mutably.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the tensor, returning the backing vector.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Reshapes to `rows × cols` with every entry zeroed, reusing the
    /// backing allocation whenever its capacity suffices. The result is
    /// indistinguishable from a fresh [`Tensor::zeros`].
    pub fn resize_to(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Reshapes to `rows × cols` *without* the zero prefill of
    /// [`Tensor::resize_to`], for kernels that assign every output cell.
    /// Entries that were present before the call keep their stale values,
    /// so the caller must overwrite all of them.
    fn resize_for_overwrite(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Makes `self` an exact copy of `other` (shape and contents), reusing
    /// the backing allocation whenever its capacity suffices.
    pub fn copy_from(&mut self, other: &Tensor) {
        self.rows = other.rows;
        self.cols = other.cols;
        self.data.clear();
        self.data.extend_from_slice(&other.data);
    }

    // ----- element access -----------------------------------------------

    /// The entry at `(r, c)`.
    ///
    /// # Panics
    /// Panics on out-of-bounds indices.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(
            r < self.rows && c < self.cols,
            "get({r},{c}) out of {}x{}",
            self.rows,
            self.cols
        );
        self.data[r * self.cols + c]
    }

    /// Sets the entry at `(r, c)`.
    ///
    /// # Panics
    /// Panics on out-of-bounds indices.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, value: f64) {
        assert!(
            r < self.rows && c < self.cols,
            "set({r},{c}) out of {}x{}",
            self.rows,
            self.cols
        );
        self.data[r * self.cols + c] = value;
    }

    /// Row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row {r} out of {} rows", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Row `r` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        assert!(r < self.rows, "row {r} out of {} rows", self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Column `c` copied into a fresh vector.
    pub fn col(&self, c: usize) -> Vec<f64> {
        assert!(c < self.cols, "col {c} out of {} cols", self.cols);
        (0..self.rows)
            .map(|r| self.data[r * self.cols + c])
            .collect()
    }

    /// Iterator over column `c`, top to bottom, without allocating.
    ///
    /// # Panics
    /// Panics if `c` is out of bounds.
    pub fn col_iter(&self, c: usize) -> impl Iterator<Item = f64> + Clone + '_ {
        assert!(c < self.cols, "col_iter {c} out of {} cols", self.cols);
        // `skip` instead of slicing so an empty tensor yields an empty
        // iterator; the assert guarantees `cols >= 1` for `step_by`.
        self.data.iter().skip(c).step_by(self.cols).copied()
    }

    /// Iterator over row slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// A new tensor containing the selected rows, in order.
    ///
    /// # Panics
    /// Panics if any index is out of bounds.
    pub fn select_rows(&self, indices: &[usize]) -> Tensor {
        let mut out = Tensor::zeros(0, 0);
        self.select_rows_into(indices, &mut out);
        out
    }

    /// [`Tensor::select_rows`] writing into a caller-provided tensor,
    /// reusing its backing allocation whenever the capacity suffices.
    ///
    /// # Panics
    /// Panics if any index is out of bounds.
    pub fn select_rows_into(&self, indices: &[usize], out: &mut Tensor) {
        out.rows = indices.len();
        out.cols = self.cols;
        out.data.clear();
        for &i in indices {
            out.data.extend_from_slice(self.row(i));
        }
    }

    /// Rows `lo..hi` as a new tensor.
    pub fn slice_rows(&self, lo: usize, hi: usize) -> Tensor {
        assert!(
            lo <= hi && hi <= self.rows,
            "slice_rows({lo},{hi}) out of {} rows",
            self.rows
        );
        Tensor::from_vec(
            hi - lo,
            self.cols,
            self.data[lo * self.cols..hi * self.cols].to_vec(),
        )
    }

    /// Stacks tensors vertically (all must share the column count).
    ///
    /// # Panics
    /// Panics if `parts` is empty or the column counts disagree.
    pub fn vstack(parts: &[&Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "vstack: no tensors");
        let cols = parts[0].cols;
        let rows: usize = parts.iter().map(|t| t.rows).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for t in parts {
            assert_eq!(t.cols, cols, "vstack: mismatched column counts");
            data.extend_from_slice(&t.data);
        }
        Tensor { rows, cols, data }
    }

    /// Concatenates tensors horizontally (all must share the row count).
    ///
    /// # Panics
    /// Panics if `parts` is empty or the row counts disagree.
    pub fn hstack(parts: &[&Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "hstack: no tensors");
        let rows = parts[0].rows;
        let cols: usize = parts.iter().map(|t| t.cols).sum();
        let mut out = Tensor::zeros(rows, cols);
        let mut offset = 0;
        for t in parts {
            assert_eq!(t.rows, rows, "hstack: mismatched row counts");
            for r in 0..rows {
                out.data[r * cols + offset..r * cols + offset + t.cols].copy_from_slice(t.row(r));
            }
            offset += t.cols;
        }
        out
    }

    // ----- linear algebra -------------------------------------------------

    /// Matrix product `self × other`.
    ///
    /// Dispatches to [`crate::backend::CpuBlocked`]. Every backend
    /// accumulates each output element's `k` products in ascending
    /// `p = 0..k` order from a `0.0` start, so results are bit-identical
    /// across backends and for any thread count.
    ///
    /// # Panics
    /// Panics if the inner dimensions disagree.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(self.rows, other.cols);
        self.matmul_into(other, &mut out);
        out
    }

    /// [`Tensor::matmul`] writing into a caller-provided tensor.
    ///
    /// `out` is reshaped to `(self.rows, other.cols)` without reallocating
    /// when its capacity suffices; the backend kernel assigns every output
    /// cell, and the result is bit-for-bit the one [`Tensor::matmul`]
    /// returns.
    pub fn matmul_into(&self, other: &Tensor, out: &mut Tensor) {
        assert_eq!(
            self.cols, other.rows,
            "matmul: left operand is {}x{} so its column count {} must equal the right \
             operand's row count, but the right operand is {}x{}",
            self.rows, self.cols, self.cols, other.rows, other.cols
        );
        let (m, k, n) = (self.rows, self.cols, other.cols);
        // Backend kernels assign every output cell, so skip the zero prefill.
        out.resize_for_overwrite(m, n);
        crate::backend::dispatch().matmul_into(m, k, n, &self.data, &other.data, &mut out.data);
    }

    /// `selfᵀ × other` without materialising the transpose.
    ///
    /// Dispatches to [`crate::backend::CpuBlocked`]; per-element accumulation
    /// runs in `p = 0..k` order from a `0.0` start in every backend, so the
    /// result is bit-identical across backends and thread counts.
    pub fn t_matmul(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(self.cols, other.cols);
        self.t_matmul_into(other, &mut out);
        out
    }

    /// [`Tensor::t_matmul`] writing into a caller-provided tensor.
    ///
    /// `out` is reshaped to `(self.cols, other.cols)` without reallocating
    /// when its capacity suffices; the backend kernel defines every output
    /// cell, and the result is bit-for-bit the one [`Tensor::t_matmul`]
    /// returns.
    pub fn t_matmul_into(&self, other: &Tensor, out: &mut Tensor) {
        assert_eq!(
            self.rows, other.rows,
            "t_matmul: left operand is {}x{} (transposed to {}x{}) so its row count {} must \
             equal the right operand's row count, but the right operand is {}x{}",
            self.rows, self.cols, self.cols, self.rows, self.rows, other.rows, other.cols
        );
        let (m, k, n) = (self.cols, self.rows, other.cols);
        // Backend kernels define every output cell, so skip the zero prefill.
        out.resize_for_overwrite(m, n);
        crate::backend::dispatch().t_matmul_into(m, k, n, &self.data, &other.data, &mut out.data);
    }

    /// `self × otherᵀ` without materialising the transpose.
    ///
    /// Dispatches to [`crate::backend::CpuBlocked`]; per-element accumulation
    /// runs in index order from a `0.0` start in every backend, so the
    /// result is bit-identical across backends and thread counts.
    pub fn matmul_t(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(self.rows, other.rows);
        self.matmul_t_into(other, &mut out);
        out
    }

    /// [`Tensor::matmul_t`] writing into a caller-provided tensor.
    ///
    /// `out` is reshaped to `(self.rows, other.rows)` without reallocating
    /// when its capacity suffices; every output cell is assigned (never
    /// accumulated into), so stale contents cannot leak through. The result
    /// is bit-for-bit the one [`Tensor::matmul_t`] returns.
    pub fn matmul_t_into(&self, other: &Tensor, out: &mut Tensor) {
        assert_eq!(
            self.cols, other.cols,
            "matmul_t: left operand is {}x{} so its column count {} must equal the right \
             operand's column count (right is transposed), but the right operand is {}x{}",
            self.rows, self.cols, self.cols, other.rows, other.cols
        );
        let (m, k, n) = (self.rows, self.cols, other.rows);
        // Every cell is assigned from a register accumulator; no prefill.
        out.resize_for_overwrite(m, n);
        crate::backend::dispatch().matmul_t_into(m, k, n, &self.data, &other.data, &mut out.data);
    }

    /// Scaled-accumulate matrix product: `out += s · (self × other)`.
    ///
    /// Unlike the `*_into` family, `out` is **not** reshaped — it must
    /// already be `(self.rows, other.cols)`, and its existing contents are
    /// accumulated into, which is the point: this is the adapter merge
    /// kernel (`W_eff = W + (α/r)·down·up`) and the general `C += s·A·B`
    /// building block. Dispatches to [`crate::backend::CpuBlocked`]; the
    /// product uses the backend's own GEMM (ascending-`p` accumulation) and
    /// the fold-in runs in index order, so results are bit-identical across
    /// backends and thread counts and exactly match the naive composition
    /// `matmul` → elementwise `out[i] += s · tmp[i]`.
    ///
    /// # Panics
    /// Panics if the inner dimensions disagree or `out` has the wrong shape.
    pub fn addmm_scaled_into(
        &self,
        other: &Tensor,
        s: f64,
        out: &mut Tensor,
        scratch: &mut crate::scratch::Scratch,
    ) {
        assert_eq!(
            self.cols, other.rows,
            "addmm_scaled_into: left operand is {}x{} so its column count {} must equal the \
             right operand's row count, but the right operand is {}x{}",
            self.rows, self.cols, self.cols, other.rows, other.cols
        );
        assert_eq!(
            (out.rows, out.cols),
            (self.rows, other.cols),
            "addmm_scaled_into: out is {}x{} but must be pre-shaped to {}x{} (it is \
             accumulated into, not overwritten)",
            out.rows,
            out.cols,
            self.rows,
            other.cols
        );
        let (m, k, n) = (self.rows, self.cols, other.cols);
        crate::backend::dispatch().addmm_scaled_into(
            m,
            k,
            n,
            s,
            &self.data,
            &other.data,
            &mut out.data,
            scratch,
        );
    }

    /// The transpose as a new tensor.
    pub fn transpose(&self) -> Tensor {
        let mut out = Tensor::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    // ----- elementwise ----------------------------------------------------

    /// Elementwise sum.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a + b)
    }

    /// Elementwise difference.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a - b)
    }

    /// Elementwise (Hadamard) product.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a * b)
    }

    /// Every entry multiplied by `k`.
    pub fn scale(&self, k: f64) -> Tensor {
        self.map(|x| x * k)
    }

    /// In-place `self += other`.
    pub fn add_assign(&mut self, other: &Tensor) {
        self.zip_apply(other, |a, b| *a += b);
    }

    /// In-place `self -= other`.
    pub fn sub_assign(&mut self, other: &Tensor) {
        self.zip_apply(other, |a, b| *a -= b);
    }

    /// In-place `self += k * other` (the axpy kernel used by optimizers).
    pub fn axpy(&mut self, k: f64, other: &Tensor) {
        self.zip_apply(other, |a, b| *a += k * b);
    }

    /// In-place `self *= k`.
    pub fn scale_assign(&mut self, k: f64) {
        for v in &mut self.data {
            *v *= k;
        }
    }

    /// Sets every entry to zero, retaining the allocation.
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Applies `f` to every entry, returning a new tensor.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Tensor {
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Applies `f` to every entry in place.
    pub fn map_assign(&mut self, f: impl Fn(f64) -> f64) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Combines two equally-shaped tensors entrywise.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn zip_map(&self, other: &Tensor, f: impl Fn(f64, f64) -> f64) -> Tensor {
        assert_eq!(self.shape(), other.shape(), "zip_map: shape mismatch");
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    fn zip_apply(&mut self, other: &Tensor, f: impl Fn(&mut f64, f64)) {
        assert_eq!(self.shape(), other.shape(), "zip_apply: shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            f(a, b);
        }
    }

    /// [`Tensor::map`] writing into a caller-provided tensor, reusing its
    /// backing allocation whenever the capacity suffices.
    pub fn map_into(&self, f: impl Fn(f64) -> f64, out: &mut Tensor) {
        out.rows = self.rows;
        out.cols = self.cols;
        out.data.clear();
        out.data.extend(self.data.iter().map(|&x| f(x)));
    }

    /// [`Tensor::zip_map`] writing into a caller-provided tensor, reusing
    /// its backing allocation whenever the capacity suffices.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn zip_map_into(&self, other: &Tensor, f: impl Fn(f64, f64) -> f64, out: &mut Tensor) {
        assert_eq!(self.shape(), other.shape(), "zip_map: shape mismatch");
        out.rows = self.rows;
        out.cols = self.cols;
        out.data.clear();
        out.data
            .extend(self.data.iter().zip(&other.data).map(|(&a, &b)| f(a, b)));
    }

    // ----- broadcasts -----------------------------------------------------

    /// Adds a length-`cols` row vector to every row.
    ///
    /// # Panics
    /// Panics if `bias.len() != cols`.
    pub fn add_row_broadcast(&self, bias: &[f64]) -> Tensor {
        assert_eq!(
            bias.len(),
            self.cols,
            "add_row_broadcast: bias length mismatch"
        );
        let mut out = self.clone();
        out.add_row_broadcast_assign(bias);
        out
    }

    /// In-place row-broadcast addition.
    pub fn add_row_broadcast_assign(&mut self, bias: &[f64]) {
        assert_eq!(
            bias.len(),
            self.cols,
            "add_row_broadcast: bias length mismatch"
        );
        for row in self.data.chunks_exact_mut(self.cols) {
            for (v, &b) in row.iter_mut().zip(bias) {
                *v += b;
            }
        }
    }

    /// Multiplies every row entrywise by a length-`cols` vector.
    pub fn mul_row_broadcast(&self, scale: &[f64]) -> Tensor {
        let mut out = self.clone();
        out.mul_row_broadcast_assign(scale);
        out
    }

    /// In-place row-broadcast multiplication.
    pub fn mul_row_broadcast_assign(&mut self, scale: &[f64]) {
        assert_eq!(
            scale.len(),
            self.cols,
            "mul_row_broadcast: scale length mismatch"
        );
        for row in self.data.chunks_exact_mut(self.cols) {
            for (v, &s) in row.iter_mut().zip(scale) {
                *v *= s;
            }
        }
    }

    /// Multiplies row `r` by `weights[r]` (per-sample weighting).
    pub fn mul_col_broadcast(&self, weights: &[f64]) -> Tensor {
        assert_eq!(
            weights.len(),
            self.rows,
            "mul_col_broadcast: weight length mismatch"
        );
        let mut out = self.clone();
        for (row, &w) in out.data.chunks_exact_mut(out.cols.max(1)).zip(weights) {
            for v in row {
                *v *= w;
            }
        }
        out
    }

    // ----- reductions -----------------------------------------------------

    /// Sum of all entries.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Mean of all entries (0 for an empty tensor).
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f64
        }
    }

    /// Per-column sums (a length-`cols` vector).
    pub fn sum_rows(&self) -> Vec<f64> {
        let mut out = Vec::new();
        self.sum_rows_into(&mut out);
        out
    }

    /// [`Tensor::sum_rows`] writing into a caller-provided vector, reusing
    /// its allocation whenever the capacity suffices. The accumulation order
    /// — and therefore every bit — matches [`Tensor::sum_rows`].
    pub fn sum_rows_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.resize(self.cols, 0.0);
        for row in self.data.chunks_exact(self.cols.max(1)) {
            for (o, &v) in out.iter_mut().zip(row) {
                *o += v;
            }
        }
    }

    /// Per-column means.
    pub fn mean_rows(&self) -> Vec<f64> {
        let mut out = Vec::new();
        self.mean_rows_into(&mut out);
        out
    }

    /// [`Tensor::mean_rows`] writing into a caller-provided vector.
    pub fn mean_rows_into(&self, out: &mut Vec<f64>) {
        self.sum_rows_into(out);
        if self.rows > 0 {
            let inv = 1.0 / self.rows as f64;
            for s in out.iter_mut() {
                *s *= inv;
            }
        }
    }

    /// Per-column population variances.
    pub fn var_rows(&self) -> Vec<f64> {
        let means = self.mean_rows();
        let mut out = Vec::new();
        self.var_rows_with_means_into(&means, &mut out);
        out
    }

    /// [`Tensor::var_rows`] against caller-supplied per-column `means`,
    /// writing into a caller-provided vector. Passing the exact output of
    /// [`Tensor::mean_rows`] reproduces [`Tensor::var_rows`] bit for bit.
    ///
    /// # Panics
    /// Panics if `means.len() != cols`.
    pub fn var_rows_with_means_into(&self, means: &[f64], out: &mut Vec<f64>) {
        assert_eq!(means.len(), self.cols, "var_rows: means length mismatch");
        out.clear();
        out.resize(self.cols, 0.0);
        for row in self.data.chunks_exact(self.cols.max(1)) {
            for ((o, &v), &m) in out.iter_mut().zip(row).zip(means) {
                let d = v - m;
                *o += d * d;
            }
        }
        if self.rows > 0 {
            let inv = 1.0 / self.rows as f64;
            for o in out.iter_mut() {
                *o *= inv;
            }
        }
    }

    /// Per-row sums (a length-`rows` vector).
    pub fn sum_cols(&self) -> Vec<f64> {
        self.data
            .chunks_exact(self.cols.max(1))
            .map(|row| row.iter().sum())
            .collect()
    }

    /// Largest entry; `NaN` entries are ignored.
    pub fn max(&self) -> f64 {
        self.data.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    /// Smallest entry; `NaN` entries are ignored.
    pub fn min(&self) -> f64 {
        self.data.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// The Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// True when every entry is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(rows: usize, cols: usize, v: &[f64]) -> Tensor {
        Tensor::from_vec(rows, cols, v.to_vec())
    }

    #[test]
    fn constructors_shapes() {
        assert_eq!(Tensor::zeros(3, 4).shape(), (3, 4));
        assert_eq!(Tensor::full(2, 2, 7.0).as_slice(), &[7.0; 4]);
        assert_eq!(Tensor::identity(3).get(1, 1), 1.0);
        assert_eq!(Tensor::identity(3).get(1, 2), 0.0);
        assert_eq!(Tensor::row_vector(&[1.0, 2.0]).shape(), (1, 2));
        assert_eq!(Tensor::col_vector(&[1.0, 2.0]).shape(), (2, 1));
    }

    #[test]
    #[should_panic(expected = "from_vec")]
    fn from_vec_rejects_bad_length() {
        Tensor::from_vec(2, 3, vec![1.0; 5]);
    }

    #[test]
    fn from_rows_and_ragged() {
        let x = Tensor::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(x.get(1, 0), 3.0);
    }

    #[test]
    #[should_panic(expected = "from_rows")]
    fn from_rows_ragged_panics() {
        Tensor::from_rows(&[vec![1.0], vec![2.0, 3.0]]);
    }

    #[test]
    fn matmul_known_product() {
        let a = t(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = t(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = t(2, 2, &[1.5, -2.0, 0.25, 4.0]);
        assert_eq!(a.matmul(&Tensor::identity(2)), a);
        assert_eq!(Tensor::identity(2).matmul(&a), a);
    }

    #[test]
    fn transposed_products_agree_with_explicit_transpose() {
        let mut rng = Rng::new(1);
        let a = Tensor::rand_normal(4, 3, 0.0, 1.0, &mut rng);
        let b = Tensor::rand_normal(4, 5, 0.0, 1.0, &mut rng);
        let via_t = a.transpose().matmul(&b);
        let fused = a.t_matmul(&b);
        for (x, y) in via_t.as_slice().iter().zip(fused.as_slice()) {
            assert!((x - y).abs() < 1e-12);
        }
        let c = Tensor::rand_normal(6, 3, 0.0, 1.0, &mut rng);
        let d = Tensor::rand_normal(2, 3, 0.0, 1.0, &mut rng);
        let via_t2 = c.matmul(&d.transpose());
        let fused2 = c.matmul_t(&d);
        for (x, y) in via_t2.as_slice().iter().zip(fused2.as_slice()) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "matmul")]
    fn matmul_shape_mismatch_panics() {
        t(2, 3, &[0.0; 6]).matmul(&t(2, 2, &[0.0; 4]));
    }

    #[test]
    fn elementwise_ops() {
        let a = t(1, 3, &[1.0, 2.0, 3.0]);
        let b = t(1, 3, &[4.0, 5.0, 6.0]);
        assert_eq!(a.add(&b).as_slice(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).as_slice(), &[3.0, 3.0, 3.0]);
        assert_eq!(a.mul(&b).as_slice(), &[4.0, 10.0, 18.0]);
        assert_eq!(a.scale(2.0).as_slice(), &[2.0, 4.0, 6.0]);
    }

    #[test]
    fn inplace_ops() {
        let mut a = t(1, 2, &[1.0, 2.0]);
        let b = t(1, 2, &[10.0, 20.0]);
        a.add_assign(&b);
        assert_eq!(a.as_slice(), &[11.0, 22.0]);
        a.sub_assign(&b);
        assert_eq!(a.as_slice(), &[1.0, 2.0]);
        a.axpy(0.5, &b);
        assert_eq!(a.as_slice(), &[6.0, 12.0]);
        a.scale_assign(2.0);
        assert_eq!(a.as_slice(), &[12.0, 24.0]);
        a.fill_zero();
        assert_eq!(a.as_slice(), &[0.0, 0.0]);
    }

    #[test]
    fn broadcasts() {
        let x = t(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let with_bias = x.add_row_broadcast(&[10.0, 20.0, 30.0]);
        assert_eq!(with_bias.as_slice(), &[11.0, 22.0, 33.0, 14.0, 25.0, 36.0]);
        let scaled = x.mul_row_broadcast(&[1.0, 0.0, 2.0]);
        assert_eq!(scaled.as_slice(), &[1.0, 0.0, 6.0, 4.0, 0.0, 12.0]);
        let weighted = x.mul_col_broadcast(&[2.0, 0.5]);
        assert_eq!(weighted.as_slice(), &[2.0, 4.0, 6.0, 2.0, 2.5, 3.0]);
    }

    #[test]
    fn reductions() {
        let x = t(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(x.sum(), 10.0);
        assert_eq!(x.mean(), 2.5);
        assert_eq!(x.sum_rows(), vec![4.0, 6.0]);
        assert_eq!(x.mean_rows(), vec![2.0, 3.0]);
        assert_eq!(x.sum_cols(), vec![3.0, 7.0]);
        assert_eq!(x.max(), 4.0);
        assert_eq!(x.min(), 1.0);
        assert!((x.frobenius_norm() - 30.0_f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn var_rows_matches_manual() {
        let x = t(3, 1, &[1.0, 2.0, 3.0]);
        let v = x.var_rows();
        assert!((v[0] - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn row_and_col_access() {
        let x = t(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(x.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(x.col(2), vec![3.0, 6.0]);
        assert_eq!(x.col_iter(2).collect::<Vec<_>>(), x.col(2));
        assert_eq!(x.col_iter(0).collect::<Vec<_>>(), vec![1.0, 4.0]);
        assert_eq!(Tensor::zeros(0, 3).col_iter(2).count(), 0);
        assert_eq!(
            x.select_rows(&[1, 0]).as_slice(),
            &[4.0, 5.0, 6.0, 1.0, 2.0, 3.0]
        );
        assert_eq!(x.slice_rows(1, 2).as_slice(), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn stacking() {
        let a = t(1, 2, &[1.0, 2.0]);
        let b = t(2, 2, &[3.0, 4.0, 5.0, 6.0]);
        let v = Tensor::vstack(&[&a, &b]);
        assert_eq!(v.shape(), (3, 2));
        assert_eq!(v.row(2), &[5.0, 6.0]);

        let c = t(2, 1, &[9.0, 10.0]);
        let h = Tensor::hstack(&[&b, &c]);
        assert_eq!(h.shape(), (2, 3));
        assert_eq!(h.row(0), &[3.0, 4.0, 9.0]);
        assert_eq!(h.row(1), &[5.0, 6.0, 10.0]);
    }

    #[test]
    fn transpose_involution() {
        let mut rng = Rng::new(2);
        let x = Tensor::rand_uniform(3, 5, -1.0, 1.0, &mut rng);
        assert_eq!(x.transpose().transpose(), x);
    }

    #[test]
    fn all_finite_detects_nan_and_inf() {
        let mut x = t(1, 2, &[1.0, 2.0]);
        assert!(x.all_finite());
        x.set(0, 1, f64::NAN);
        assert!(!x.all_finite());
        x.set(0, 1, f64::INFINITY);
        assert!(!x.all_finite());
    }

    #[test]
    fn addmm_scaled_matches_naive_composition_bitwise() {
        // The dispatched backend services both sides, so this pins the
        // addmm contract (product via the backend GEMM, fold-in in index
        // order) to the naive composition exactly, bit for bit.
        let mut rng = Rng::new(77);
        for &(m, k, n) in &[(1, 1, 1), (3, 2, 5), (7, 13, 4), (16, 16, 16), (33, 9, 21)] {
            let a = Tensor::rand_normal(m, k, 0.0, 1.0, &mut rng);
            let b = Tensor::rand_normal(k, n, 0.0, 1.0, &mut rng);
            let base = Tensor::rand_normal(m, n, 0.0, 1.0, &mut rng);
            let s = rng.uniform(-2.0, 2.0);

            let mut got = base.clone();
            crate::scratch::with(|scratch| a.addmm_scaled_into(&b, s, &mut got, scratch));

            let tmp = a.matmul(&b);
            let mut want = base.clone();
            for (w, &t) in want.as_mut_slice().iter_mut().zip(tmp.as_slice()) {
                *w += s * t;
            }
            assert_eq!(
                got.as_slice(),
                want.as_slice(),
                "addmm_scaled_into diverged from the naive composition at {m}x{k}x{n}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "addmm_scaled_into: out is")]
    fn addmm_scaled_rejects_misshapen_out() {
        let a = Tensor::zeros(2, 3);
        let b = Tensor::zeros(3, 4);
        let mut out = Tensor::zeros(2, 5);
        crate::scratch::with(|scratch| a.addmm_scaled_into(&b, 1.0, &mut out, scratch));
    }

    #[test]
    #[should_panic(expected = "addmm_scaled_into: left operand is")]
    fn addmm_scaled_rejects_inner_mismatch() {
        let a = Tensor::zeros(2, 3);
        let b = Tensor::zeros(4, 4);
        let mut out = Tensor::zeros(2, 4);
        crate::scratch::with(|scratch| a.addmm_scaled_into(&b, 1.0, &mut out, scratch));
    }
}
