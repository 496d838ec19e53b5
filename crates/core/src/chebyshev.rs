//! Chebyshev iteration (paper §III.C) — both a standalone solver and the
//! coefficient machinery reused by CPPCG's inner smoothing.
//!
//! Given eigenvalue bounds `[λmin, λmax]` of the (preconditioned)
//! operator, the shifted/scaled first-kind Chebyshev acceleration (Saad,
//! *Iterative Methods for Sparse Linear Systems*, Alg. 12.1) is
//!
//! ```text
//! θ = (λmax + λmin)/2,  δ = (λmax − λmin)/2,  σ = θ/δ
//! ρ₀ = 1/σ,   sd₀ = z₀/θ
//! step: u += sd;  r −= A·sd;  z = M⁻¹r
//!       ρ_{k} = 1/(2σ − ρ_{k−1})
//!       sd = (ρ_k ρ_{k−1})·sd + (2ρ_k/δ)·z
//! ```
//!
//! Its appeal for strong scaling: **no dot products** — the only global
//! communication is the occasional convergence check. The eigenvalue
//! bounds come from a short plain-CG prelude (paper §III.D).

use crate::api::{IterativeSolver, SolveContext, SolverParams};
use crate::cg::{eigen_prelude, Prelude};
use crate::eigen::EigenEstimate;
use crate::precon::{PreconKind, Preconditioner};
use crate::solver::{SolveOpts, Tile, Workspace};
use crate::trace::{SolveResult, SolveStatus, SolveTrace};
use crate::vector;
use tea_comms::Communicator;
use tea_mesh::Field2D;

/// Shift/scale constants derived from an eigenvalue estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChebyConstants {
    /// Spectrum midpoint `(λmax + λmin)/2`.
    pub theta: f64,
    /// Spectrum half-width `(λmax − λmin)/2`.
    pub delta: f64,
    /// `θ/δ`.
    pub sigma: f64,
}

impl ChebyConstants {
    /// Derives the constants; requires a strictly positive spectrum with
    /// `λmax > λmin` (equal bounds would put `σ = ∞`; treat that case as
    /// a diagonal shift solved in one step by the caller).
    pub fn from_estimate(est: EigenEstimate) -> Self {
        assert!(
            est.min > 0.0,
            "spectrum must be positive, got λmin = {}",
            est.min
        );
        assert!(
            est.max > est.min,
            "need λmax > λmin, got [{}, {}]",
            est.min,
            est.max
        );
        let theta = 0.5 * (est.max + est.min);
        let delta = 0.5 * (est.max - est.min);
        ChebyConstants {
            theta,
            delta,
            sigma: theta / delta,
        }
    }

    /// The asymptotic per-iteration error contraction factor
    /// `σ_c = (√κ − 1)/(√κ + 1)` with `κ = λmax/λmin`.
    pub fn contraction(&self) -> f64 {
        let kappa = (self.theta + self.delta) / (self.theta - self.delta);
        let s = kappa.sqrt();
        (s - 1.0) / (s + 1.0)
    }

    /// Generates the `(α_k, β_k)` recurrence coefficients for `m` steps:
    /// `sd ← α_k·sd + β_k·z` (TeaLeaf's `ch_alphas`/`ch_betas`).
    pub fn coefficients(&self, m: usize) -> Vec<(f64, f64)> {
        let mut out = Vec::with_capacity(m);
        let mut rho_old = 1.0 / self.sigma;
        for _ in 0..m {
            let rho_new = 1.0 / (2.0 * self.sigma - rho_old);
            out.push((rho_new * rho_old, 2.0 * rho_new / self.delta));
            rho_old = rho_new;
        }
        out
    }
}

/// Iteration bound of plain CG, `√κ/2 · ln(2/ε)` (paper Eq. 6).
pub fn cg_iteration_bound(kappa: f64, eps: f64) -> f64 {
    0.5 * kappa.sqrt() * (2.0 / eps).ln()
}

/// Options for the standalone Chebyshev solver.
#[derive(Debug, Clone, Copy)]
pub struct ChebyOpts {
    /// Plain-CG iterations used to estimate the spectrum (TeaLeaf
    /// `tl_ch_cg_presteps`).
    pub presteps: u64,
    /// Safety widening applied to the Lanczos estimate (the bounds must
    /// *contain* the true spectrum or the iteration diverges).
    pub eigen_safety: f64,
    /// Convergence check cadence in iterations (each check is one global
    /// reduction).
    pub check_interval: u64,
}

impl Default for ChebyOpts {
    fn default() -> Self {
        ChebyOpts {
            presteps: 30,
            eigen_safety: 0.1,
            check_interval: 10,
        }
    }
}

/// CG-prelude Chebyshev acceleration as an [`IterativeSolver`]: no dot
/// products in the acceleration phase, only the periodic convergence
/// check communicates.
#[derive(Debug, Clone, Default)]
pub struct Chebyshev {
    kind: PreconKind,
    cheby: ChebyOpts,
    opts: SolveOpts,
    precon: Option<Preconditioner>,
    hint: Option<EigenEstimate>,
    last_est: Option<EigenEstimate>,
}

impl Chebyshev {
    /// A Chebyshev solver with preconditioner `kind` and phase options
    /// `cheby`.
    pub fn new(kind: PreconKind, cheby: ChebyOpts) -> Self {
        Chebyshev {
            kind,
            cheby,
            opts: SolveOpts::default(),
            precon: None,
            hint: None,
            last_est: None,
        }
    }

    /// Registry factory: consumes `precon`, `presteps`, `eigen_safety`
    /// and `check_interval`.
    pub fn from_params(params: &SolverParams) -> Self {
        Chebyshev::new(
            params.precon,
            ChebyOpts {
                presteps: params.presteps,
                eigen_safety: params.eigen_safety,
                check_interval: params.check_interval,
            },
        )
    }
}

impl Chebyshev {
    /// The one place the preconditioner is assembled for this solver
    /// (used by both `prepare` and the prepare-on-demand path).
    fn assemble_precon(&self, ctx: &SolveContext<'_>) -> Preconditioner {
        Preconditioner::setup(self.kind, ctx.tile.op, 0)
    }
}

impl IterativeSolver for Chebyshev {
    fn name(&self) -> &'static str {
        "chebyshev"
    }

    fn label(&self) -> String {
        "Chebyshev".into()
    }

    fn prepare(&mut self, ctx: &SolveContext<'_>, opts: &SolveOpts) {
        self.opts = *opts;
        self.precon = Some(self.assemble_precon(ctx));
    }

    fn solve(
        &mut self,
        ctx: &SolveContext<'_>,
        u: &mut Field2D,
        b: &Field2D,
        ws: &mut Workspace,
        trace: &mut SolveTrace,
    ) -> SolveResult {
        if self.precon.is_none() {
            self.precon = Some(self.assemble_precon(ctx));
        }
        let precon = self.precon.as_ref().expect("just prepared");
        let result =
            chebyshev_solve_impl(ctx.tile, u, b, precon, ws, self.opts, self.cheby, self.hint);
        self.last_est = result
            .trace
            .eigen_bounds
            .map(|(min, max)| EigenEstimate { min, max });
        trace.merge(&result.trace);
        result
    }

    fn set_eigen_hint(&mut self, hint: Option<EigenEstimate>) {
        self.hint = hint;
    }

    fn last_eigen_estimate(&self) -> Option<EigenEstimate> {
        self.last_est
    }
}

#[allow(clippy::too_many_arguments)]
pub(crate) fn chebyshev_solve_impl<C: Communicator + ?Sized>(
    tile: &Tile<'_, C>,
    u: &mut Field2D,
    b: &Field2D,
    precon: &Preconditioner,
    ws: &mut Workspace,
    opts: SolveOpts,
    cheby: ChebyOpts,
    hint: Option<EigenEstimate>,
) -> SolveResult {
    let bounds = &tile.op.bounds;

    // Phase 1: CG presteps for the spectrum of M⁻¹A, keeping the
    // partial solution.
    let prelude = eigen_prelude(
        tile,
        u,
        b,
        precon,
        ws,
        opts,
        cheby.presteps,
        cheby.eigen_safety,
        hint,
        "Chebyshev",
    );
    let (pre, est) = match prelude {
        Prelude::Continue(pre, est) => (pre, est),
        Prelude::Done(done) => return done,
    };
    let mut trace = pre.trace;
    let consts = ChebyConstants::from_estimate(est);

    // Phase 2: Chebyshev acceleration from the CG-advanced iterate.
    tile.exchange(&mut [u], 1, &mut trace);
    tile.op.residual(u, b, &mut ws.r, 0, &mut trace);
    precon.apply(&ws.r, &mut ws.z, bounds, 0, &mut trace);
    vector::scaled_copy(&mut ws.sd, &ws.z, 1.0 / consts.theta, bounds, 0, &mut trace);

    let initial_residual = pre.initial_residual;
    let target = opts.eps * initial_residual;
    let check_interval = cheby.check_interval.max(1); // 0 would divide by zero
    let mut rho_old = 1.0 / consts.sigma;
    let mut iterations = pre.iterations;
    let mut converged = false;
    let mut status = SolveStatus::IterationLimit;
    let mut final_residual = pre.final_residual;

    while iterations < opts.max_iters {
        if tile.controls.should_stop() {
            status = SolveStatus::Cancelled {
                iteration: iterations,
            };
            break;
        }
        iterations += 1;
        trace.outer_iterations += 1;
        tile.controls.poke(iterations, u, &mut ws.r);

        tile.exchange(&mut [&mut ws.sd], 1, &mut trace);
        tile.op.apply(&ws.sd, &mut ws.w, 0, &mut trace);
        vector::axpy(u, 1.0, &ws.sd, bounds, 0, &mut trace);
        vector::axpy(&mut ws.r, -1.0, &ws.w, bounds, 0, &mut trace);
        precon.apply(&ws.r, &mut ws.z, bounds, 0, &mut trace);

        let rho_new = 1.0 / (2.0 * consts.sigma - rho_old);
        vector::scale_add(
            &mut ws.sd,
            rho_new * rho_old,
            2.0 * rho_new / consts.delta,
            &ws.z,
            bounds,
            0,
            &mut trace,
        );
        rho_old = rho_new;

        // periodic convergence check: the only global communication here
        let since_pre = iterations - pre.iterations;
        if since_pre % check_interval == 0 {
            let rr_local = vector::dot_local(&ws.r, &ws.r, bounds, &mut trace);
            let rr = tile.reduce_sum(rr_local, &mut trace);
            if !rr.is_finite() {
                status = SolveStatus::Diverged {
                    iteration: iterations,
                };
                final_residual = f64::NAN;
                break;
            }
            final_residual = rr.max(0.0).sqrt();
            if final_residual <= target {
                converged = true;
                status = SolveStatus::Converged;
                break;
            }
        }
    }
    if !converged && !status.is_diverged() && !status.is_cancelled() {
        // final authoritative residual
        let rr_local = vector::dot_local(&ws.r, &ws.r, bounds, &mut trace);
        let rr = tile.reduce_sum(rr_local, &mut trace);
        if !rr.is_finite() {
            status = SolveStatus::Diverged {
                iteration: iterations,
            };
            final_residual = f64::NAN;
        } else {
            final_residual = rr.max(0.0).sqrt();
            converged = final_residual <= target;
            if converged {
                status = SolveStatus::Converged;
            }
        }
    }

    SolveResult {
        converged,
        iterations,
        initial_residual,
        final_residual,
        status,
        trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{TileBounds, TileOperator};
    use crate::precon::PreconKind;
    use crate::trace::SolveTrace;
    use tea_comms::{HaloLayout, SerialComm};
    use tea_mesh::{crooked_pipe, timestep_scalings, Coefficients, Decomposition2D, Mesh2D};

    fn serial_problem(n: usize, halo: usize) -> (TileOperator, Field2D) {
        let p = crooked_pipe(n);
        let mesh = Mesh2D::serial(n, n, p.extent);
        let mut density = Field2D::new(n, n, halo);
        let mut energy = Field2D::new(n, n, halo);
        p.apply_states(&mesh, &mut density, &mut energy);
        let (rx, ry) = timestep_scalings(&mesh, 0.04);
        let coeffs = Coefficients::assemble(&mesh, &density, p.coefficient, rx, ry, halo);
        let op = TileOperator::new(coeffs, TileBounds::serial(n, n));
        let mut b = Field2D::new(n, n, halo);
        for k in 0..n as isize {
            for j in 0..n as isize {
                b.set(j, k, density.at(j, k) * energy.at(j, k));
            }
        }
        (op, b)
    }

    #[test]
    fn constants_from_estimate() {
        let c = ChebyConstants::from_estimate(EigenEstimate { min: 1.0, max: 9.0 });
        assert_eq!(c.theta, 5.0);
        assert_eq!(c.delta, 4.0);
        assert_eq!(c.sigma, 1.25);
        // kappa = 9, contraction = (3-1)/(3+1) = 0.5
        assert!((c.contraction() - 0.5).abs() < 1e-14);
    }

    #[test]
    fn coefficient_recurrence_matches_manual() {
        let c = ChebyConstants::from_estimate(EigenEstimate { min: 1.0, max: 3.0 });
        // sigma = 2, rho0 = 0.5
        let cs = c.coefficients(2);
        let rho1 = 1.0 / (4.0 - 0.5);
        assert!((cs[0].0 - rho1 * 0.5).abs() < 1e-15);
        assert!((cs[0].1 - 2.0 * rho1 / c.delta).abs() < 1e-15);
        let rho2 = 1.0 / (4.0 - rho1);
        assert!((cs[1].0 - rho2 * rho1).abs() < 1e-15);
    }

    #[test]
    fn residual_polynomial_decays_on_scalar_model() {
        // apply the recurrence to the scalar problem a*x = b for a inside
        // the bounds; the residual must contract at >= the predicted rate
        let est = EigenEstimate { min: 0.5, max: 4.0 };
        let c = ChebyConstants::from_estimate(est);
        for &a in &[0.5, 1.0, 2.7, 4.0] {
            let b = 1.0;
            let x0 = 0.0;
            let mut x = x0;
            let mut r = b - a * x0;
            let mut sd = r / c.theta;
            let mut rho_old = 1.0 / c.sigma;
            for _ in 0..40 {
                x += sd;
                r -= a * sd;
                let rho_new = 1.0 / (2.0 * c.sigma - rho_old);
                sd = rho_new * rho_old * sd + (2.0 * rho_new / c.delta) * r;
                rho_old = rho_new;
            }
            assert!(
                r.abs() < 1e-6,
                "scalar Chebyshev failed for a = {a}: residual {r}"
            );
            assert!(
                (a * x - b).abs() < 1e-6,
                "iterate must solve a*x = b: a = {a}, x = {x}"
            );
        }
    }

    #[test]
    fn chebyshev_converges_on_crooked_pipe() {
        let n = 32;
        let (op, b) = serial_problem(n, 1);
        let comm = SerialComm::new();
        let d = Decomposition2D::with_grid(n, n, 1, 1);
        let layout = HaloLayout::new(&d, 0);
        let tile = Tile::new(&op, &layout, &comm);
        let mut ws = Workspace::new(n, n, 1);
        let mut u = b.clone();
        let m = Preconditioner::setup(PreconKind::None, &op, 0);
        let res = chebyshev_solve_impl(
            &tile,
            &mut u,
            &b,
            &m,
            &mut ws,
            SolveOpts::with_eps(1e-8),
            ChebyOpts::default(),
            None,
        );
        assert!(res.converged, "Chebyshev must converge: {res:?}");
        let mut t = SolveTrace::new("check");
        let mut r = Field2D::new(n, n, 1);
        op.residual(&u, &b, &mut r, 0, &mut t);
        assert!(r.interior_norm() / b.interior_norm() < 1e-6);
        assert!(res.trace.eigen_bounds.is_some());
    }

    #[test]
    fn chebyshev_uses_far_fewer_reductions_than_cg() {
        use crate::cg::cg_solve_impl;
        let n = 32;
        let (op, b) = serial_problem(n, 1);
        let comm = SerialComm::new();
        let d = Decomposition2D::with_grid(n, n, 1, 1);
        let layout = HaloLayout::new(&d, 0);
        let tile = Tile::new(&op, &layout, &comm);
        let m = Preconditioner::setup(PreconKind::None, &op, 0);

        let mut ws = Workspace::new(n, n, 1);
        let mut u1 = b.clone();
        let cg = cg_solve_impl(&tile, &mut u1, &b, &m, &mut ws, SolveOpts::with_eps(1e-8));

        let mut u2 = b.clone();
        let ch = chebyshev_solve_impl(
            &tile,
            &mut u2,
            &b,
            &m,
            &mut ws,
            SolveOpts::with_eps(1e-8),
            ChebyOpts::default(),
            None,
        );
        assert!(cg.converged && ch.converged);
        let cg_reds_per_iter = cg.trace.reductions as f64 / cg.iterations as f64;
        let ch_post = ch
            .trace
            .reductions
            .saturating_sub(2 * ChebyOpts::default().presteps);
        let ch_reds_per_iter =
            ch_post as f64 / (ch.iterations - ChebyOpts::default().presteps).max(1) as f64;
        assert!(
            ch_reds_per_iter < 0.5 * cg_reds_per_iter,
            "Chebyshev should slash reductions: {ch_reds_per_iter} vs {cg_reds_per_iter}"
        );
    }

    #[test]
    fn iteration_bound_formula() {
        // Eq. 6: kappa = 100, eps = 1e-10 -> 5 * ln(2e10) ~ 118.6
        let k = cg_iteration_bound(100.0, 1e-10);
        assert!((k - 0.5 * 10.0 * (2e10f64).ln()).abs() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn non_positive_spectrum_rejected() {
        let _ = ChebyConstants::from_estimate(EigenEstimate {
            min: -1.0,
            max: 2.0,
        });
    }
}
