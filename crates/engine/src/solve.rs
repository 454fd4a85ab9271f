//! Plan-once/run-many iterative solvers over engine-served SpMV.
//!
//! The serving path in [`crate`] is built for streams of unrelated
//! requests: every [`Engine::spmv`](crate::Engine::spmv) call pays a
//! plan lookup, a conversion-cache lookup, and a counter volley. An
//! iterative solver is the opposite workload — hundreds of SpMVs on
//! *one* matrix — so [`Engine::solver`](crate::Engine::solver) hoists
//! everything per-matrix out of the loop:
//!
//! - **Resolve once.** The handle resolves the plan synchronously at
//!   construction (even under asynchronous admission: the conversion
//!   will be amortized over the whole solve — or, when the id's
//!   admission flight is already queued, the handle waits for it) and
//!   holds the served format's `Arc` for its lifetime. Iterations never touch the plan
//!   table or conversion cache again, so nothing there is held for
//!   them: LRU eviction and `forget` of the id mid-solve clear the
//!   tables as for any other id, and the solve finishes on the format
//!   it holds. The tradeoff: a solved id's plan can be evicted while
//!   its handle is alive, and a later serve of the id whose conversion
//!   was evicted too runs one more feature pass. The solve itself is
//!   unaffected.
//! - **Allocate once.** All operand vectors (solution, residual,
//!   direction, plus the BiCGStab shadow/stabilizer set) are allocated
//!   at construction; the hot loop performs zero allocations.
//! - **Fuse the hot loop.** `A·p` and `p·(A·p)` run as one sweep via
//!   [`SparseFormat::spmv_dot_parallel`](spmv_formats::SparseFormat::spmv_dot_parallel),
//!   and all vector updates go through the deterministic parallel BLAS-1 in
//!   [`spmv_parallel::blas1`] — bit-reproducible at a fixed thread
//!   count thanks to the fixed-shape tree reduction.
//!
//! Residual histories are therefore reproducible run-to-run at a fixed
//! `SPMV_THREADS`; across thread counts they agree to rounding.

use crate::{Admission, Engine, Served};
use spmv_core::CsrMatrix;
use spmv_formats::FormatKind;
use spmv_parallel::blas1;
use spmv_parallel::sync::Ordering;

/// A plan-once/run-many solver over one engine-served matrix. Create
/// via [`Engine::solver`]; the selected format is resolved exactly
/// once and held for the handle's lifetime, and every operand vector is
/// preallocated, so [`SolveHandle::cg`] and [`SolveHandle::bicgstab`]
/// iterations are pure compute — zero lookups, zero allocations.
pub struct SolveHandle<'e> {
    engine: &'e Engine,
    /// The served format, held directly — iterations bypass the
    /// conversion cache entirely, and a concurrent `forget` cannot
    /// pull it out from under a running solve.
    served: Served,
    n: usize,
    /// Solution iterate (readable via [`SolveHandle::solution`]).
    x: Vec<f64>,
    /// Residual.
    r: Vec<f64>,
    /// Search direction.
    p: Vec<f64>,
    /// `A·p` (CG and BiCGStab).
    v: Vec<f64>,
    /// BiCGStab half-step residual.
    s: Vec<f64>,
    /// BiCGStab `A·s`.
    t: Vec<f64>,
    /// BiCGStab shadow residual.
    r_hat: Vec<f64>,
}

/// Result of a completed (converged or iteration-capped) solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveOutcome {
    /// Iterations performed.
    pub iterations: usize,
    /// Final relative residual `‖r‖ / ‖b‖`.
    pub residual: f64,
    /// Whether `residual ≤ tol` was reached within `max_iters`.
    pub converged: bool,
}

/// Typed solver failures. Breakdown variants report the iteration at
/// which the scalar collapsed; the iterations completed up to that
/// point are still counted in
/// [`EngineCounters::solver_iterations`](crate::EngineCounters).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveError {
    /// `b.len()` does not match the system dimension.
    DimensionMismatch {
        /// System rows.
        expected: usize,
        /// `b.len()` supplied.
        got: usize,
    },
    /// The right-hand side contains NaN or infinity.
    NonFiniteRhs,
    /// An iterate's residual norm became non-finite mid-solve.
    NonFiniteIterate {
        /// Iteration at which the non-finite value appeared.
        iteration: usize,
    },
    /// CG observed `p·Ap ≤ 0`: the matrix is not SPD.
    CurvatureBreakdown {
        /// Iteration at which curvature failed.
        iteration: usize,
    },
    /// BiCGStab's `rho` (or `r̂·v`) collapsed to zero.
    RhoBreakdown {
        /// Iteration at which rho collapsed.
        iteration: usize,
    },
    /// BiCGStab's `omega` collapsed to zero (`t = 0` or `s·t = 0`).
    OmegaBreakdown {
        /// Iteration at which omega collapsed.
        iteration: usize,
    },
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::DimensionMismatch { expected, got } => {
                write!(f, "right-hand side has {got} entries, system has {expected} rows")
            }
            SolveError::NonFiniteRhs => write!(f, "right-hand side contains a non-finite value"),
            SolveError::NonFiniteIterate { iteration } => {
                write!(f, "iterate became non-finite at iteration {iteration}")
            }
            SolveError::CurvatureBreakdown { iteration } => {
                write!(
                    f,
                    "CG curvature p·Ap not positive at iteration {iteration} \
                     (matrix is not symmetric positive definite)"
                )
            }
            SolveError::RhoBreakdown { iteration } => {
                write!(f, "BiCGStab rho collapsed at iteration {iteration}")
            }
            SolveError::OmegaBreakdown { iteration } => {
                write!(f, "BiCGStab omega collapsed at iteration {iteration}")
            }
        }
    }
}

impl std::error::Error for SolveError {}

impl<'e> SolveHandle<'e> {
    /// Resolves and preallocates. Called via [`Engine::solver`].
    pub(crate) fn new(engine: &'e Engine, id: &str, csr: &CsrMatrix) -> SolveHandle<'e> {
        assert_eq!(csr.rows(), csr.cols(), "solver requires a square system");
        let n = csr.rows();
        // Serve synchronously whatever the admission mode (the conversion
        // is amortized over the whole solve); it counts as one request.
        let served = engine.serve(id, csr, Admission::Sync);
        engine.state.live_solves.fetch_add(1, Ordering::Relaxed);
        SolveHandle {
            engine,
            served,
            n,
            x: vec![0.0; n],
            r: vec![0.0; n],
            p: vec![0.0; n],
            v: vec![0.0; n],
            s: vec![0.0; n],
            t: vec![0.0; n],
            r_hat: vec![0.0; n],
        }
    }

    /// The format the whole solve runs on (resolved once, at
    /// construction).
    pub fn kind(&self) -> FormatKind {
        self.served.format().1
    }

    /// System dimension (rows = cols).
    pub fn len(&self) -> usize {
        self.n
    }

    /// True for the 0×0 system (every right-hand side converges in
    /// zero iterations).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The solution vector written by the most recent `cg`/`bicgstab`
    /// call (zeros before the first call; on error, the last iterate).
    pub fn solution(&self) -> &[f64] {
        &self.x
    }

    /// Conjugate Gradients for symmetric positive-definite systems.
    /// Starts from `x = 0`; converges when `‖r‖ / ‖b‖ ≤ tol`. The
    /// solution stays readable via [`SolveHandle::solution`].
    ///
    /// Each iteration costs one fused SpMV+dot sweep plus three
    /// BLAS-1 passes — no plan lookups, no allocations.
    pub fn cg(
        &mut self,
        b: &[f64],
        tol: f64,
        max_iters: usize,
    ) -> Result<SolveOutcome, SolveError> {
        let engine = self.engine;
        engine.state.counters.mine().solves.fetch_add(1, Ordering::Relaxed);
        let mut iters = 0usize;
        let out = self.cg_inner(b, tol, max_iters, &mut iters);
        engine.state.counters.mine().solver_iterations.fetch_add(iters as u64, Ordering::Relaxed);
        out
    }

    fn cg_inner(
        &mut self,
        b: &[f64],
        tol: f64,
        max_iters: usize,
        iters: &mut usize,
    ) -> Result<SolveOutcome, SolveError> {
        if b.len() != self.n {
            return Err(SolveError::DimensionMismatch { expected: self.n, got: b.len() });
        }
        let pool = self.engine.pool();
        self.x.fill(0.0);
        self.r.copy_from_slice(b);
        self.p.copy_from_slice(b);
        let mut rr = blas1::dot(pool, &self.r, &self.r);
        if !rr.is_finite() {
            return Err(SolveError::NonFiniteRhs);
        }
        let b_norm = rr.sqrt();
        if b_norm == 0.0 {
            return Ok(SolveOutcome { iterations: 0, residual: 0.0, converged: true });
        }
        let mut residual = 1.0;
        while *iters < max_iters {
            // One sweep computes v = A·p and p·v.
            let p_ap = self.served.format().0.spmv_dot_parallel(pool, &self.p, &mut self.v);
            if !p_ap.is_finite() || p_ap <= 0.0 {
                return Err(SolveError::CurvatureBreakdown { iteration: *iters });
            }
            let alpha = rr / p_ap;
            blas1::axpy(pool, alpha, &self.p, &mut self.x);
            blas1::axpy(pool, -alpha, &self.v, &mut self.r);
            let rr_new = blas1::dot(pool, &self.r, &self.r);
            *iters += 1;
            if !rr_new.is_finite() {
                return Err(SolveError::NonFiniteIterate { iteration: *iters });
            }
            residual = rr_new.sqrt() / b_norm;
            if residual <= tol {
                return Ok(SolveOutcome { iterations: *iters, residual, converged: true });
            }
            let beta = rr_new / rr;
            rr = rr_new;
            blas1::xpby(pool, &self.r, beta, &mut self.p);
        }
        Ok(SolveOutcome { iterations: *iters, residual, converged: false })
    }

    /// BiCGStab for general (non-symmetric) systems. Starts from
    /// `x = 0`; converges when `‖r‖ / ‖b‖ ≤ tol`. Breakdown of the
    /// rho or omega scalars is reported as a typed error with the
    /// iteration it occurred at.
    ///
    /// Each iteration costs two SpMV sweeps (the second fused with
    /// the `s·t` dot) plus the BLAS-1 updates — no plan lookups, no
    /// allocations.
    pub fn bicgstab(
        &mut self,
        b: &[f64],
        tol: f64,
        max_iters: usize,
    ) -> Result<SolveOutcome, SolveError> {
        let engine = self.engine;
        engine.state.counters.mine().solves.fetch_add(1, Ordering::Relaxed);
        let mut iters = 0usize;
        let out = self.bicgstab_inner(b, tol, max_iters, &mut iters);
        engine.state.counters.mine().solver_iterations.fetch_add(iters as u64, Ordering::Relaxed);
        out
    }

    fn bicgstab_inner(
        &mut self,
        b: &[f64],
        tol: f64,
        max_iters: usize,
        iters: &mut usize,
    ) -> Result<SolveOutcome, SolveError> {
        if b.len() != self.n {
            return Err(SolveError::DimensionMismatch { expected: self.n, got: b.len() });
        }
        let pool = self.engine.pool();
        self.x.fill(0.0);
        self.r.copy_from_slice(b);
        self.r_hat.copy_from_slice(b);
        self.p.fill(0.0);
        self.v.fill(0.0);
        let rr = blas1::dot(pool, &self.r, &self.r);
        if !rr.is_finite() {
            return Err(SolveError::NonFiniteRhs);
        }
        let b_norm = rr.sqrt();
        if b_norm == 0.0 {
            return Ok(SolveOutcome { iterations: 0, residual: 0.0, converged: true });
        }
        let (mut rho, mut alpha, mut omega) = (1.0f64, 1.0f64, 1.0f64);
        let mut residual = 1.0;
        while *iters < max_iters {
            let rho_new = blas1::dot(pool, &self.r_hat, &self.r);
            if rho_new == 0.0 || !rho_new.is_finite() {
                return Err(SolveError::RhoBreakdown { iteration: *iters });
            }
            let beta = (rho_new / rho) * (alpha / omega);
            rho = rho_new;
            // p = r + beta * (p - omega * v)
            blas1::axpy(pool, -omega, &self.v, &mut self.p);
            blas1::xpby(pool, &self.r, beta, &mut self.p);
            self.served.format().0.spmv_parallel(pool, &self.p, &mut self.v);
            let rhat_v = blas1::dot(pool, &self.r_hat, &self.v);
            if rhat_v == 0.0 || !rhat_v.is_finite() {
                return Err(SolveError::RhoBreakdown { iteration: *iters });
            }
            alpha = rho / rhat_v;
            // s = r - alpha * v
            self.s.copy_from_slice(&self.r);
            blas1::axpy(pool, -alpha, &self.v, &mut self.s);
            let ss = blas1::dot(pool, &self.s, &self.s);
            if !ss.is_finite() {
                return Err(SolveError::NonFiniteIterate { iteration: *iters });
            }
            if ss.sqrt() / b_norm <= tol {
                // Converged at the half step: x += alpha * p.
                blas1::axpy(pool, alpha, &self.p, &mut self.x);
                *iters += 1;
                residual = ss.sqrt() / b_norm;
                return Ok(SolveOutcome { iterations: *iters, residual, converged: true });
            }
            // One sweep computes t = A·s and s·t.
            let ts = self.served.format().0.spmv_dot_parallel(pool, &self.s, &mut self.t);
            let tt = blas1::dot(pool, &self.t, &self.t);
            if tt == 0.0 {
                return Err(SolveError::OmegaBreakdown { iteration: *iters });
            }
            omega = ts / tt;
            if omega == 0.0 || !omega.is_finite() {
                return Err(SolveError::OmegaBreakdown { iteration: *iters });
            }
            // x += alpha * p + omega * s
            blas1::axpy(pool, alpha, &self.p, &mut self.x);
            blas1::axpy(pool, omega, &self.s, &mut self.x);
            // r = s - omega * t
            self.r.copy_from_slice(&self.s);
            blas1::axpy(pool, -omega, &self.t, &mut self.r);
            let rr_new = blas1::dot(pool, &self.r, &self.r);
            *iters += 1;
            if !rr_new.is_finite() {
                return Err(SolveError::NonFiniteIterate { iteration: *iters });
            }
            residual = rr_new.sqrt() / b_norm;
            if residual <= tol {
                return Ok(SolveOutcome { iterations: *iters, residual, converged: true });
            }
        }
        Ok(SolveOutcome { iterations: *iters, residual, converged: false })
    }
}

impl Drop for SolveHandle<'_> {
    fn drop(&mut self) {
        self.engine.state.live_solves.fetch_sub(1, Ordering::Relaxed);
    }
}

#[allow(dead_code)]
fn _served_is_send_sync(s: Served) -> impl Send + Sync {
    s
}
