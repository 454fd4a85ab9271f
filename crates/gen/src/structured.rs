//! Structured matrices the artificial generator does not make.

use spmv_core::CsrMatrix;

/// 5-point stencil on an `n × n` grid with central-difference
/// convection `(p, q)`: diagonal 4, off-diagonals `−1 ∓ p` along a row
/// of the grid and `−1 ∓ q` across rows. `(0, 0)` is the SPD Poisson
/// matrix CG needs, anything else a nonsymmetric, diagonally dominant
/// system for BiCGStab. `|p|, |q| < 1` keeps the off-diagonals negative.
pub fn stencil_2d(n: usize, p: f64, q: f64) -> CsrMatrix {
    let dim = n * n;
    let mut t: Vec<(usize, usize, f64)> = Vec::with_capacity(5 * dim);
    for i in 0..n {
        for j in 0..n {
            let r = i * n + j;
            if i > 0 {
                t.push((r, r - n, -1.0 - q));
            }
            if j > 0 {
                t.push((r, r - 1, -1.0 - p));
            }
            t.push((r, r, 4.0));
            if j + 1 < n {
                t.push((r, r + 1, -1.0 + p));
            }
            if i + 1 < n {
                t.push((r, r + n, -1.0 + q));
            }
        }
    }
    CsrMatrix::from_triplets(dim, dim, &t).expect("stencil is a valid matrix")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_on_a_3x3_grid_is_the_hand_built_laplacian() {
        let a = stencil_2d(3, 0.0, 0.0);
        let row_ptr = [0, 3, 7, 10, 14, 19, 23, 26, 30, 33];
        #[rustfmt::skip]
        let col_idx = [
            0, 1, 3,
            0, 1, 2, 4,
            1, 2, 5,
            0, 3, 4, 6,
            1, 3, 4, 5, 7,
            2, 4, 5, 8,
            3, 6, 7,
            4, 6, 7, 8,
            5, 7, 8,
        ];
        // The diagonal of row r sits where its column is r.
        let values: Vec<u64> = (0..9)
            .flat_map(|r| (row_ptr[r]..row_ptr[r + 1]).map(move |k| (r, k)))
            .map(|(r, k)| if col_idx[k] == r as u32 { 4.0f64 } else { -1.0 }.to_bits())
            .collect();
        assert_eq!((a.rows(), a.cols()), (9, 9));
        assert_eq!(a.row_ptr(), row_ptr);
        assert_eq!(a.col_idx(), col_idx);
        assert_eq!(a.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>(), values);
    }

    #[test]
    fn convection_lowers_the_upstream_and_raises_the_downstream_couplings() {
        let (p, q) = (0.4, 0.2);
        let a = stencil_2d(3, p, q);
        assert_eq!(a.row_ptr(), stencil_2d(3, 0.0, 0.0).row_ptr());
        // The centre of the grid, row 4: up, left, itself, right, down.
        let (cols, vals) = a.row(4);
        assert_eq!(cols, [1, 3, 4, 5, 7]);
        assert_eq!(vals, [-1.0 - q, -1.0 - p, 4.0, -1.0 + p, -1.0 + q]);
    }
}
