//! Output verification: every workload checks what the program
//! answered against the CSR reference kernel (`CsrMatrix::spmv`, run
//! once per operand before timing starts), and counts what it attempted
//! and what failed.

use spmv_core::CsrMatrix;

/// Relative tolerance of an SpMV answer against the CSR reference
/// (formats reassociate row sums, nothing more).
pub const SPMV_REL_TOL: f64 = 1e-9;

/// Tolerance of a solver's true residual `‖b − A·x‖ / ‖b‖`, recomputed
/// on CSR, for solves run to `SOLVE_TOL`.
pub const RESIDUAL_TOL: f64 = 1e-7;
pub const SOLVE_TOL: f64 = 1e-8;

/// `true` when every entry of `got` is within `SPMV_REL_TOL` of `want`,
/// relative to the largest reference magnitude.
pub fn close(got: &[f64], want: &[f64]) -> bool {
    let scale = want.iter().fold(f64::MIN_POSITIVE, |m, w| m.max(w.abs()));
    got.len() == want.len()
        && got.iter().zip(want).all(|(g, w)| (g - w).abs() <= SPMV_REL_TOL * scale)
}

/// Running account of one run: operations issued, checks failed, and
/// structural conditions (counter reconciliations) violated.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
}

impl Tally {
    /// Counts `n` operations issued to the program.
    pub fn issued(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Records one verification outcome.
    pub fn check(&mut self, ok: bool) {
        self.failed += u64::from(!ok);
    }

    /// Checks an answer against its precomputed reference.
    pub fn check_close(&mut self, got: &[f64], want: &[f64]) {
        self.check(close(got, want));
    }

    /// Records a structural condition; a false one makes the run
    /// incorrect and is named in the result.
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty()
    }
}

/// True relative residual `‖b − A·x‖ / ‖b‖` on the CSR reference.
pub fn true_residual(a: &CsrMatrix, x: &[f64], b: &[f64]) -> f64 {
    let ax = a.spmv(x);
    let num: f64 = ax.iter().zip(b).map(|(ax, b)| (b - ax) * (b - ax)).sum();
    let den: f64 = b.iter().map(|b| b * b).sum();
    (num / den).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_correct_answer_passes_and_a_corrupted_reference_fails() {
        let a = crate::inputs::stencil_2d(8, 0.2, 0.1);
        let x = crate::inputs::vector(a.cols());
        let y = a.spmv(&x);
        let mut tally = Tally::default();
        tally.issued(2);
        tally.check_close(&y, &a.spmv(&x));
        assert_eq!((tally.attempted, tally.failed), (2, 0));
        assert!(tally.correct());

        // Corrupt the reference: one matrix value off by one part in 10⁶.
        let mut corrupted = a.clone();
        corrupted.values_mut()[17] *= 1.0 + 1e-6;
        tally.check_close(&y, &corrupted.spmv(&x));
        assert_eq!(tally.failed, 1, "fail_ratio must become non-zero");
        assert!(!tally.correct());
    }

    #[test]
    fn reassociation_noise_passes_but_a_wrong_or_nan_entry_fails() {
        let want = vec![1.0, -2.0, 1e6];
        assert!(close(&[1.0 + 1e-13, -2.0, 1e6 + 1e-5], &want));
        assert!(!close(&[1.0, -2.0, 1e6 + 1.0], &want));
        assert!(!close(&[1.0, f64::NAN, 1e6], &want));
        assert!(!close(&[1.0, -2.0], &want));
    }

    #[test]
    fn violations_make_a_run_incorrect() {
        let mut t = Tally::default();
        t.require(true, || unreachable!());
        assert!(t.correct());
        t.require(false, || "conversions 9 != 8".into());
        assert!(!t.correct());
        assert_eq!(t.violations, vec!["conversions 9 != 8".to_string()]);
    }

    #[test]
    fn residual_of_an_exact_solution_is_zero() {
        let a = crate::inputs::stencil_2d(5, 0.0, 0.0);
        let x = crate::inputs::vector(a.cols());
        let b = a.spmv(&x);
        assert!(true_residual(&a, &x, &b) < 1e-15);
        assert!(true_residual(&a, &[0.0; 25], &b) > 0.99);
    }
}
