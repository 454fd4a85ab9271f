//! What the solver tests share.

use spmv_suite::core::CsrMatrix;

/// 5-point Laplacian on an `n x n` grid: SPD, the classic CG matrix.
pub fn poisson_2d(n: usize) -> CsrMatrix {
    let dim = n * n;
    let mut t: Vec<(usize, usize, f64)> = Vec::with_capacity(5 * dim);
    for i in 0..n {
        for j in 0..n {
            let r = i * n + j;
            t.push((r, r, 4.0));
            if i > 0 {
                t.push((r, r - n, -1.0));
            }
            if i + 1 < n {
                t.push((r, r + n, -1.0));
            }
            if j > 0 {
                t.push((r, r - 1, -1.0));
            }
            if j + 1 < n {
                t.push((r, r + 1, -1.0));
            }
        }
    }
    CsrMatrix::from_triplets(dim, dim, &t).expect("stencil is valid")
}
