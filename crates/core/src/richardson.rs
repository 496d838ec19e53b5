//! Preconditioned Richardson iteration with Chebyshev-estimated damping
//! — the solver added *after* the [`crate::api::IterativeSolver`]
//! redesign, purely through the trait + registry, to prove the design
//! space is extensible without driver surgery.
//!
//! The method is stationary first-order Richardson,
//!
//! ```text
//! u ← u + ω M⁻¹ (b − A·u)
//! ```
//!
//! which converges for SPD `M⁻¹A` whenever `0 < ω < 2/λmax` and fastest
//! at the Chebyshev-optimal damping `ω* = 2/(λmin + λmax)`, where the
//! error contracts per sweep by `(κ−1)/(κ+1)` with `κ = λmax/λmin`.
//! The spectrum bounds come from the same short plain-CG + Lanczos
//! prelude the Chebyshev and CPPCG solvers use (paper §III.D), so like
//! them the iteration itself needs **no dot products** — one depth-1
//! halo exchange and one stencil sweep per iteration, with a global
//! reduction only at the periodic convergence check.
//!
//! In the design space it sits between Jacobi (ω = 1, M = diag A) and
//! Chebyshev (which replaces the fixed ω by the optimal polynomial):
//! the communication profile of Chebyshev with the convergence rate of
//! a stationary method.

use crate::api::{IterativeSolver, SolveContext, SolverParams};
use crate::cg::{eigen_prelude, Prelude};
use crate::eigen::EigenEstimate;
use crate::precon::{PreconKind, Preconditioner};
use crate::solver::{SolveOpts, Tile, Workspace};
use crate::trace::{SolveResult, SolveStatus, SolveTrace};
use crate::vector;
use tea_comms::Communicator;
use tea_mesh::Field2D;

/// Options for the Richardson solver.
#[derive(Debug, Clone, Copy)]
pub struct RichardsonOpts {
    /// Plain-CG iterations used to estimate the spectrum of `M⁻¹A`.
    pub presteps: u64,
    /// Safety widening of the Lanczos bounds (a too-small `λmax`
    /// estimate would overdamp past the stability limit).
    pub eigen_safety: f64,
    /// Convergence-check cadence in iterations (each check is one
    /// global reduction).
    pub check_interval: u64,
}

impl Default for RichardsonOpts {
    fn default() -> Self {
        RichardsonOpts {
            presteps: 30,
            eigen_safety: 0.1,
            check_interval: 10,
        }
    }
}

/// Preconditioned Richardson iteration as an
/// [`IterativeSolver`] (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct Richardson {
    kind: PreconKind,
    rich: RichardsonOpts,
    opts: SolveOpts,
    precon: Option<Preconditioner>,
    hint: Option<EigenEstimate>,
    last_est: Option<EigenEstimate>,
}

impl Richardson {
    /// A Richardson solver with preconditioner `kind` and options
    /// `rich`.
    pub fn new(kind: PreconKind, rich: RichardsonOpts) -> Self {
        Richardson {
            kind,
            rich,
            opts: SolveOpts::default(),
            precon: None,
            hint: None,
            last_est: None,
        }
    }

    /// Registry factory: consumes `precon`, `presteps`, `eigen_safety`
    /// and `check_interval`.
    pub fn from_params(params: &SolverParams) -> Self {
        Richardson::new(
            params.precon,
            RichardsonOpts {
                presteps: params.presteps,
                eigen_safety: params.eigen_safety,
                check_interval: params.check_interval,
            },
        )
    }
}

impl Richardson {
    /// The one place the preconditioner is assembled for this solver
    /// (used by both `prepare` and the prepare-on-demand path).
    fn assemble_precon(&self, ctx: &SolveContext<'_>) -> Preconditioner {
        Preconditioner::setup(self.kind, ctx.tile.op, 0)
    }
}

impl IterativeSolver for Richardson {
    fn name(&self) -> &'static str {
        "richardson"
    }

    fn label(&self) -> String {
        "Richardson".into()
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
        let result = richardson_solve(ctx.tile, u, b, precon, ws, self.opts, self.rich, self.hint);
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

/// The solve engine (kept free-standing and generic like the other
/// engines so unit tests can drive it directly; the public way in is
/// the [`Richardson`] struct).
#[allow(clippy::too_many_arguments)]
fn richardson_solve<C: Communicator + ?Sized>(
    tile: &Tile<'_, C>,
    u: &mut Field2D,
    b: &Field2D,
    precon: &Preconditioner,
    ws: &mut Workspace,
    opts: SolveOpts,
    rich: RichardsonOpts,
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
        rich.presteps,
        rich.eigen_safety,
        hint,
        "Richardson",
    );
    let (pre, est) = match prelude {
        Prelude::Continue(pre, est) => (pre, est),
        Prelude::Done(done) => return done,
    };
    let mut trace = pre.trace;
    let omega = 2.0 / (est.min + est.max);

    // Phase 2: damped stationary iteration from the CG-advanced iterate.
    tile.exchange(&mut [u], 1, &mut trace);
    tile.op.residual(u, b, &mut ws.r, 0, &mut trace);
    precon.apply(&ws.r, &mut ws.z, bounds, 0, &mut trace);

    let initial_residual = pre.initial_residual;
    let target = opts.eps * initial_residual;
    let check_interval = rich.check_interval.max(1); // 0 would divide by zero
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

        // u += ω z ; refresh r = b - A u and z = M⁻¹ r
        vector::axpy(u, omega, &ws.z, bounds, 0, &mut trace);
        tile.exchange(&mut [u], 1, &mut trace);
        tile.op.residual(u, b, &mut ws.r, 0, &mut trace);
        precon.apply(&ws.r, &mut ws.z, bounds, 0, &mut trace);

        // periodic convergence check: the only global communication
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
    use crate::api::DynTile;
    use crate::builder::crooked_pipe_system;
    use crate::ops::TileOperator;
    use tea_comms::{HaloLayout, SerialComm};
    use tea_mesh::Decomposition2D;

    fn serial_problem(n: usize) -> (TileOperator, Field2D) {
        crooked_pipe_system(n, 0.04, 1)
    }

    #[test]
    fn richardson_converges_on_crooked_pipe() {
        let n = 24;
        let (op, b) = serial_problem(n);
        let comm = SerialComm::new();
        let d = Decomposition2D::with_grid(n, n, 1, 1);
        let layout = HaloLayout::new(&d, 0);
        let tile: DynTile<'_> = Tile::new(&op, &layout, comm.as_dyn());
        let ctx = SolveContext::new(&tile);
        let mut ws = Workspace::new(n, n, 1);
        let mut u = b.clone();
        let rich = RichardsonOpts {
            presteps: 8, // few enough that the CG prelude cannot finish the job
            ..Default::default()
        };
        let mut solver = Richardson::new(PreconKind::Diagonal, rich);
        let mut acc = SolveTrace::new("run");
        solver.prepare(
            &ctx,
            &SolveOpts {
                eps: 1e-8,
                max_iters: 100_000,
            },
        );
        let res = solver.solve(&ctx, &mut u, &b, &mut ws, &mut acc);
        assert!(res.converged, "Richardson must converge: {res:?}");
        let mut t = SolveTrace::new("check");
        let mut r = Field2D::new(n, n, 1);
        op.residual(&u, &b, &mut r, 0, &mut t);
        assert!(r.interior_norm() / b.interior_norm() < 1e-6);
        // the damping came from a recorded eigenvalue estimate
        assert!(res.trace.eigen_bounds.is_some());
        // protocol merged into the caller's accumulator
        assert_eq!(acc.outer_iterations, res.trace.outer_iterations);
    }

    #[test]
    fn richardson_is_reduction_avoiding() {
        // between checks the iteration must not communicate: reductions
        // grow by ~1 per check_interval iterations, not per iteration
        let n = 24;
        let (op, b) = serial_problem(n);
        let comm = SerialComm::new();
        let d = Decomposition2D::with_grid(n, n, 1, 1);
        let layout = HaloLayout::new(&d, 0);
        let tile: DynTile<'_> = Tile::new(&op, &layout, comm.as_dyn());
        let ctx = SolveContext::new(&tile);
        let mut ws = Workspace::new(n, n, 1);
        let mut u = b.clone();
        let rich = RichardsonOpts {
            presteps: 8,
            ..Default::default()
        };
        let mut solver = Richardson::new(PreconKind::Diagonal, rich);
        solver.prepare(
            &ctx,
            &SolveOpts {
                eps: 1e-8,
                max_iters: 100_000,
            },
        );
        let mut acc = SolveTrace::new("run");
        let res = solver.solve(&ctx, &mut u, &b, &mut ws, &mut acc);
        assert!(res.converged);
        let post = res.trace.outer_iterations - solver.rich.presteps;
        // presteps cost 2 reductions each (CG); afterwards ~1 per 10 its
        let cheby_like_budget =
            1 + 2 * solver.rich.presteps + post / solver.rich.check_interval + 2;
        assert!(
            res.trace.reductions <= cheby_like_budget,
            "reductions {} exceed the reduction-avoiding budget {}",
            res.trace.reductions,
            cheby_like_budget
        );
    }

    #[test]
    fn zero_rhs_immediate() {
        let n = 8;
        let (op, _b) = serial_problem(n);
        let comm = SerialComm::new();
        let d = Decomposition2D::with_grid(n, n, 1, 1);
        let layout = HaloLayout::new(&d, 0);
        let tile: DynTile<'_> = Tile::new(&op, &layout, comm.as_dyn());
        let ctx = SolveContext::new(&tile);
        let mut ws = Workspace::new(n, n, 1);
        let zero = Field2D::new(n, n, 1);
        let mut u = Field2D::new(n, n, 1);
        let mut solver = Richardson::new(PreconKind::None, RichardsonOpts::default());
        let mut acc = SolveTrace::new("run");
        let res = solver.solve(&ctx, &mut u, &zero, &mut ws, &mut acc);
        assert!(res.converged);
        assert_eq!(res.iterations, 0);
    }
}
