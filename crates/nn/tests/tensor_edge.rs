//! Edge-case coverage for the matmul family and its `*_into` variants:
//! `k == 0` inner dimensions, single-row inputs, odd row counts (the
//! pair-blocked kernels' tail path), and widths that are not a multiple of
//! the 4-wide unrolled tail.

use tasfar_nn::parallel::{reset_threads, set_threads};
use tasfar_nn::prelude::*;

fn at_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
    set_threads(n);
    let out = f();
    reset_threads();
    out
}

fn filled(rows: usize, cols: usize, seed: u64) -> Tensor {
    let mut rng = Rng::new(seed);
    Tensor::rand_normal(rows, cols, 0.0, 1.0, &mut rng)
}

/// Reference triple loop in the kernels' `p = 0..k` accumulation order.
fn naive_matmul(a: &Tensor, b: &Tensor) -> Tensor {
    Tensor::from_fn(a.rows(), b.cols(), |i, j| {
        (0..a.cols()).map(|p| a.get(i, p) * b.get(p, j)).sum()
    })
}

fn naive_t_matmul(a: &Tensor, b: &Tensor) -> Tensor {
    Tensor::from_fn(a.cols(), b.cols(), |i, j| {
        (0..a.rows()).map(|p| a.get(p, i) * b.get(p, j)).sum()
    })
}

fn naive_matmul_t(a: &Tensor, b: &Tensor) -> Tensor {
    Tensor::from_fn(a.rows(), b.rows(), |i, j| {
        (0..a.cols()).map(|p| a.get(i, p) * b.get(j, p)).sum()
    })
}

#[test]
fn matmul_with_zero_inner_dim_is_all_zeros() {
    let a = Tensor::zeros(3, 0);
    let b = Tensor::zeros(0, 4);
    let c = a.matmul(&b);
    assert_eq!(c.shape(), (3, 4));
    assert!(c.as_slice().iter().all(|&v| v == 0.0));
}

#[test]
fn matmul_t_with_zero_inner_dim_is_all_zeros() {
    // matmul_t contracts over columns: (3,0) × (5,0)ᵀ → (3,5) of zeros.
    let a = Tensor::zeros(3, 0);
    let b = Tensor::zeros(5, 0);
    let c = a.matmul_t(&b);
    assert_eq!(c.shape(), (3, 5));
    assert!(c.as_slice().iter().all(|&v| v == 0.0));
}

#[test]
fn t_matmul_with_zero_inner_dim_is_all_zeros() {
    // t_matmul contracts over rows: (0,3)ᵀ × (0,4) → (3,4) of zeros.
    let a = Tensor::zeros(0, 3);
    let b = Tensor::zeros(0, 4);
    let c = a.t_matmul(&b);
    assert_eq!(c.shape(), (3, 4));
    assert!(c.as_slice().iter().all(|&v| v == 0.0));
}

#[test]
fn zero_rows_times_matrix_is_empty() {
    let a = Tensor::zeros(0, 3);
    let b = filled(3, 4, 1);
    assert_eq!(a.matmul(&b).shape(), (0, 4));
}

#[test]
fn single_row_matmul_matches_naive() {
    let a = filled(1, 7, 2);
    let b = filled(7, 5, 3);
    assert_eq!(a.matmul(&b), naive_matmul(&a, &b));
}

#[test]
fn single_row_matmul_t_matches_naive() {
    let a = filled(1, 7, 4);
    let b = filled(3, 7, 5);
    assert_eq!(a.matmul_t(&b), naive_matmul_t(&a, &b));
}

#[test]
fn odd_rows_and_non_multiple_of_4_widths_match_naive() {
    // 5 rows exercises the pair-blocked kernels' odd-row tail; widths 3, 5,
    // 6, 7 cover every residue of the 4-wide unrolled inner loop.
    for (m, k, n) in [(5, 3, 7), (3, 5, 6), (7, 7, 5), (1, 1, 1), (2, 4, 3)] {
        let a = filled(m, k, (m * 100 + k * 10 + n) as u64);
        let b = filled(k, n, (n * 100 + m) as u64);
        assert_eq!(a.matmul(&b), naive_matmul(&a, &b), "matmul {m}x{k}x{n}");
        let bt = filled(n, k, (k * 77 + n) as u64);
        assert_eq!(
            a.matmul_t(&bt),
            naive_matmul_t(&a, &bt),
            "matmul_t {m}x{k}x{n}"
        );
        let c = filled(m, n, (m * 31 + n) as u64);
        assert_eq!(
            a.t_matmul(&c),
            naive_t_matmul(&a, &c),
            "t_matmul {m}x{k}x{n}"
        );
    }
}

#[test]
fn into_variants_match_allocating_forms() {
    let a = filled(5, 7, 10);
    let b = filled(7, 3, 11);
    let bt = filled(4, 7, 12);
    let c = filled(5, 6, 13);

    // Dirty, wrongly-shaped out tensors: `*_into` must reset them entirely.
    let mut out = Tensor::full(2, 9, f64::NAN);
    a.matmul_into(&b, &mut out);
    assert_eq!(out, a.matmul(&b));

    let mut out = Tensor::full(1, 1, -3.5);
    a.matmul_t_into(&bt, &mut out);
    assert_eq!(out, a.matmul_t(&bt));

    let mut out = Tensor::full(8, 8, 42.0);
    a.t_matmul_into(&c, &mut out);
    assert_eq!(out, a.t_matmul(&c));
}

#[test]
fn into_variants_bit_match_across_thread_counts() {
    let a = filled(9, 11, 20);
    let b = filled(11, 5, 21);
    let single = at_threads(1, || a.matmul(&b));
    let multi = at_threads(4, || {
        let mut out = Tensor::zeros(0, 0);
        a.matmul_into(&b, &mut out);
        out
    });
    for (x, y) in single.as_slice().iter().zip(multi.as_slice()) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
}

#[test]
fn into_with_zero_inner_dim_resets_stale_contents() {
    let a = Tensor::zeros(2, 0);
    let b = Tensor::zeros(0, 3);
    let mut out = Tensor::full(2, 3, 7.0);
    a.matmul_into(&b, &mut out);
    assert_eq!(out, Tensor::zeros(2, 3));
}
