//! CPPCG — the Chebyshev Polynomially Preconditioned Conjugate Gradient
//! solver with the matrix-powers kernel (paper §III–IV).
//!
//! CPPCG is plain PCG whose `z = M⁻¹r` step happens to be an `m`-step
//! Chebyshev smoothing of `A z = r` from `z₀ = 0` (paper §III.B–C), and
//! the code says exactly that: after the shared CG + Lanczos prelude,
//! the solve runs the one PCG outer loop of [`crate::cg`] with
//! `cheb_inner` as its preconditioner step. Each outer iteration
//! therefore costs `m+1` stencil sweeps but only the **two** outer dot
//! products — the global reduction count per sweep drops by a factor of
//! ~`m` versus plain CG, which is the communication-avoidance the paper
//! quantifies with Eqs. 6–7.
//!
//! The inner body is generic over the storage scalar: `"ppcg"` runs it
//! in `f64` on the workspace, `"mixed_ppcg"` ([`crate::MixedPpcg`])
//! runs the same body in `f32` on the demoted operator, with the outer
//! residual demoted in and the correction promoted out.
//!
//! Halo traffic inside the inner smoothing is governed by the
//! **matrix-powers kernel** (paper §IV.C.2, Figs. 1–2): with halo depth
//! `h`, one depth-`h` exchange buys `h` stencil applications over loop
//! bounds that shrink by one cell per application, at the cost of
//! redundant computation in the overlap. `PPCG-1` (depth 1) exchanges
//! before every inner step; `PPCG-16` exchanges once or twice per outer
//! iteration.
//!
//! The block-Jacobi preconditioner may additionally smooth the *inner*
//! residual — but only at depth 1, because its strips need fresh whole
//! blocks (paper's stated incompatibility with matrix powers, enforced
//! here at configuration time).

use crate::api::{IterativeSolver, SolveContext, SolverParams};
use crate::cg::{eigen_prelude, pcg, PcgStart, Prelude};
use crate::chebyshev::ChebyConstants;
use crate::eigen::EigenEstimate;
use crate::mixed::F32Side;
use crate::ops::TileOperator;
use crate::precon::{PreconKind, Preconditioner};
use crate::solver::{SolveOpts, Tile, Workspace};
use crate::trace::{SolveResult, SolveTrace};
use crate::vector;
use tea_comms::{Communicator, WireScalar};
use tea_mesh::{Field2, Field2D};

/// CPPCG configuration.
#[derive(Debug, Clone, Copy)]
pub struct PpcgOpts {
    /// Inner Chebyshev smoothing steps per outer iteration (TeaLeaf
    /// `tl_ppcg_inner_steps`).
    pub inner_steps: usize,
    /// Matrix-powers halo depth (the paper's `PPCG - n` label).
    pub halo_depth: usize,
    /// Plain-CG presteps for eigenvalue estimation.
    pub presteps: u64,
    /// Safety widening of the Lanczos bounds.
    pub eigen_safety: f64,
}

impl Default for PpcgOpts {
    fn default() -> Self {
        PpcgOpts {
            inner_steps: 10,
            halo_depth: 1,
            presteps: 30,
            eigen_safety: 0.1,
        }
    }
}

impl PpcgOpts {
    /// The paper's `PPCG - n` configuration: matrix-powers depth `n`
    /// with 16 inner smoothing steps.
    pub fn with_depth(halo_depth: usize) -> Self {
        PpcgOpts {
            halo_depth,
            inner_steps: 16,
            ..Default::default()
        }
    }

    /// Figure-legend label.
    pub fn label(&self) -> String {
        format!("PPCG-{}", self.halo_depth)
    }

    /// The CPPCG fields of the generic registry parameters.
    pub(crate) fn from_params(params: &SolverParams) -> Self {
        PpcgOpts {
            inner_steps: params.inner_steps,
            halo_depth: params.halo_depth,
            presteps: params.presteps,
            eigen_safety: params.eigen_safety,
        }
    }
}

/// CPPCG as an [`IterativeSolver`]: Chebyshev polynomially
/// preconditioned CG with the matrix-powers deep-halo schedule — the
/// paper's communication-avoiding headliner. The only built-in method
/// whose [`IterativeSolver::halo_depth`] exceeds 1.
#[derive(Debug, Clone, Default)]
pub struct Ppcg {
    kind: PreconKind,
    ppcg: PpcgOpts,
    opts: SolveOpts,
    precon: Option<Preconditioner>,
    hint: Option<EigenEstimate>,
    last_est: Option<EigenEstimate>,
}

impl Ppcg {
    /// A CPPCG solver with preconditioner `kind` and configuration
    /// `ppcg`.
    pub fn new(kind: PreconKind, ppcg: PpcgOpts) -> Self {
        Ppcg {
            kind,
            ppcg,
            opts: SolveOpts::default(),
            precon: None,
            hint: None,
            last_est: None,
        }
    }

    /// Registry factory: consumes `precon`, `inner_steps`, `halo_depth`,
    /// `presteps` and `eigen_safety`.
    pub fn from_params(params: &SolverParams) -> Self {
        Ppcg::new(params.precon, PpcgOpts::from_params(params))
    }
}

impl Ppcg {
    /// The one place the preconditioner is assembled for this solver —
    /// over the matrix-powers extent — used by both `prepare` and the
    /// prepare-on-demand path.
    fn assemble_precon(&self, ctx: &SolveContext<'_>) -> Preconditioner {
        Preconditioner::setup(self.kind, ctx.tile.op, self.ppcg.halo_depth)
    }
}

impl IterativeSolver for Ppcg {
    fn name(&self) -> &'static str {
        "ppcg"
    }

    fn label(&self) -> String {
        self.ppcg.label()
    }

    fn halo_depth(&self) -> usize {
        self.ppcg.halo_depth.max(1)
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
        let result = ppcg_solve_impl(
            ctx.tile, u, b, precon, ws, self.opts, self.ppcg, self.hint, None,
        );
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

/// The CPPCG solve shared by [`Ppcg`] and [`crate::MixedPpcg`]: the
/// `f64` CG presteps and eigenvalue estimate, then the one PCG loop of
/// [`crate::cg`] with the `m`-step Chebyshev inner solve as its
/// preconditioner — run in `f64` on `ws`, or in `f32` on `side` when one
/// is given (the trace is then labelled `PPCG-n-mixed`).
#[allow(clippy::too_many_arguments)]
pub(crate) fn ppcg_solve_impl<C: Communicator + ?Sized>(
    tile: &Tile<'_, C>,
    u: &mut Field2D,
    b: &Field2D,
    precon: &Preconditioner,
    ws: &mut Workspace,
    opts: SolveOpts,
    ppcg: PpcgOpts,
    hint: Option<EigenEstimate>,
    mut side: Option<&mut F32Side>,
) -> SolveResult {
    let h = ppcg.halo_depth;
    assert!(h >= 1, "matrix-powers depth must be at least 1");
    assert!(ppcg.inner_steps >= 1, "need at least one inner step");
    assert!(
        ws.halo() >= h,
        "workspace halo {} shallower than matrix-powers depth {h}",
        ws.halo()
    );
    assert!(
        precon.supports_extension() || h == 1,
        "block-Jacobi cannot be combined with matrix powers (paper §IV.C.2)"
    );
    let label = match side {
        Some(_) => format!("{}-mixed", ppcg.label()),
        None => ppcg.label(),
    };
    let prelude = eigen_prelude(
        tile,
        u,
        b,
        precon,
        ws,
        opts,
        ppcg.presteps,
        ppcg.eigen_safety,
        hint,
        &label,
    );
    let (pre, est) = match prelude {
        Prelude::Continue(pre, est) => (pre, est),
        Prelude::Done(done) => return done,
    };
    let inner = InnerCheb::new(est, ppcg.inner_steps, h);
    let start = PcgStart::Resume(pre);
    let (result, _) = pcg(
        tile,
        u,
        b,
        ws,
        opts,
        start,
        u64::MAX,
        |ws, trace| match side.as_deref_mut() {
            None => {
                vector::copy(&mut ws.rr, &ws.r, &tile.op.bounds, 0, trace);
                let fields = [&mut ws.z, &mut ws.rr, &mut ws.sd, &mut ws.tmp];
                cheb_inner(tile, tile.op, precon, &inner, fields, trace);
            }
            Some(side) => side.cheb_inner(tile, &inner, ws, trace),
        },
    );
    result
}

/// The `m`-step inner Chebyshev smoother of CPPCG: shift/scale
/// constants and recurrence coefficients from the eigenvalue estimate,
/// and the matrix-powers halo depth.
#[derive(Debug, Clone)]
pub(crate) struct InnerCheb {
    consts: ChebyConstants,
    coeffs: Vec<(f64, f64)>,
    depth: usize,
}

impl InnerCheb {
    /// `steps` Chebyshev steps for the spectrum `est` at matrix-powers
    /// depth `depth`.
    pub(crate) fn new(est: EigenEstimate, steps: usize, depth: usize) -> Self {
        let consts = ChebyConstants::from_estimate(est);
        InnerCheb {
            coeffs: consts.coefficients(steps),
            consts,
            depth,
        }
    }
}

/// The inner `m`-step Chebyshev solve of `A z ≈ rr` from `z = 0` at
/// storage precision `S`, with the matrix-powers deep-halo schedule.
///
/// On entry `rr` holds the outer residual: the caller copies it in
/// (`f64`) or demotes it in (`f32`). On exit `z` holds the smoothed
/// correction. `sd` is the Chebyshev direction and `tmp` is used only by
/// the unfused block-Jacobi fallback; the fused sweeps never materialise
/// `A·sd`. Halo exchanges move native `S` payloads.
pub(crate) fn cheb_inner<S: WireScalar, C: Communicator + ?Sized>(
    tile: &Tile<'_, C>,
    op: &TileOperator<S>,
    precon: &Preconditioner<S>,
    inner: &InnerCheb,
    [z, rr, sd, tmp]: [&mut Field2<S>; 4],
    trace: &mut SolveTrace,
) {
    let bounds = &op.bounds;
    let (h, m) = (inner.depth, inner.coeffs.len());
    let inv_theta = S::from_f64(1.0 / inner.consts.theta);
    vector::zero(z, bounds, h, trace);
    trace.inner_iterations += m as u64;

    if h == 1 {
        // Classic depth-1 schedule: interior-only updates, one exchange
        // per inner step, block-Jacobi allowed. Each step is two fused
        // sweeps: stencil + z/rr updates in one pass (w never stored),
        // then the preconditioned sd recurrence in a second — except
        // block-Jacobi, whose strip solves fall back to the unfused
        // recurrence.
        precon.apply(rr, tmp, bounds, 0, trace);
        vector::scaled_copy(sd, tmp, inv_theta, bounds, 0, trace);
        for &(a_k, b_k) in &inner.coeffs {
            let (a_k, b_k) = (S::from_f64(a_k), S::from_f64(b_k));
            tile.exchange(&mut [&mut *sd], 1, trace);
            op.apply_cheb_fused(sd, z, rr, 0, trace);
            if !precon.fused_recurrence(sd, rr, a_k, b_k, bounds, 0, trace) {
                precon.apply(rr, tmp, bounds, 0, trace);
                vector::scale_add(sd, a_k, b_k, tmp, bounds, 0, trace);
            }
        }
        return;
    }

    // Matrix-powers schedule: one depth-h exchange buys h sweeps over
    // shrinking bounds (paper Fig. 2), each depth level fused exactly
    // like the depth-1 step (block-Jacobi never reaches this branch).
    tile.exchange(&mut [&mut *rr], h, trace);
    let mut avail = h; // sd/rr validity extension after the exchange
    precon.apply(rr, tmp, bounds, avail, trace);
    vector::scaled_copy(sd, tmp, inv_theta, bounds, avail, trace);

    for (step, &(a_k, b_k)) in inner.coeffs.iter().enumerate() {
        let (a_k, b_k) = (S::from_f64(a_k), S::from_f64(b_k));
        if avail == 0 {
            tile.exchange(&mut [&mut *sd, &mut *rr], h, trace);
            avail = h;
        }
        // never sweep wider than the remaining steps can use
        let e = (avail - 1).min(m - 1 - step);
        op.apply_cheb_fused(sd, z, rr, e, trace);
        if !precon.fused_recurrence(sd, rr, a_k, b_k, bounds, e, trace) {
            precon.apply(rr, tmp, bounds, e, trace);
            vector::scale_add(sd, a_k, b_k, tmp, bounds, e, trace);
        }
        avail = e;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cg::cg_solve_impl;
    use crate::ops::{TileBounds, TileOperator};
    use crate::precon::PreconKind;
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

    fn residual_norm(op: &TileOperator, u: &Field2D, b: &Field2D) -> f64 {
        let mut t = SolveTrace::new("check");
        let mut r = Field2D::new(u.nx(), u.ny(), u.halo());
        op.residual(u, b, &mut r, 0, &mut t);
        r.interior_norm() / b.interior_norm()
    }

    fn solve_with(
        n: usize,
        halo: usize,
        kind: PreconKind,
        ppcg_opts: PpcgOpts,
    ) -> (SolveResult, Field2D, TileOperator, Field2D) {
        let (op, b) = serial_problem(n, halo);
        let comm = SerialComm::new();
        let d = Decomposition2D::with_grid(n, n, 1, 1);
        let layout = HaloLayout::new(&d, 0);
        let tile = Tile::new(&op, &layout, &comm);
        let mut ws = Workspace::new(n, n, halo);
        let mut u = b.clone();
        let m = Preconditioner::setup(kind, &op, ppcg_opts.halo_depth);
        let res = ppcg_solve_impl(
            &tile,
            &mut u,
            &b,
            &m,
            &mut ws,
            SolveOpts::with_eps(1e-9),
            ppcg_opts,
            None,
            None,
        );
        (res, u, op, b)
    }

    #[test]
    fn ppcg_depth1_converges() {
        let (res, u, op, b) = solve_with(32, 1, PreconKind::None, PpcgOpts::default());
        assert!(res.converged, "{res:?}");
        assert!(residual_norm(&op, &u, &b) < 1e-7);
    }

    #[test]
    fn ppcg_with_block_jacobi_at_depth1() {
        let (res, u, op, b) = solve_with(32, 1, PreconKind::BlockJacobi, PpcgOpts::default());
        assert!(res.converged);
        assert!(residual_norm(&op, &u, &b) < 1e-7);
    }

    #[test]
    #[should_panic]
    fn block_jacobi_with_matrix_powers_rejected() {
        let _ = solve_with(32, 4, PreconKind::BlockJacobi, PpcgOpts::with_depth(4));
    }

    #[test]
    fn matrix_powers_depths_give_identical_results() {
        // In exact arithmetic the matrix-powers kernel only changes *when*
        // halos move, not the values computed; on a serial tile every
        // extension clamps to zero, so results are bitwise identical.
        // This is the Fig. 1/Fig. 2 equivalence.
        let (r1, u1, op, b) = solve_with(24, 1, PreconKind::None, PpcgOpts::with_depth(1));
        let (r8, u8, _, _) = solve_with(24, 8, PreconKind::None, PpcgOpts::with_depth(8));
        assert!(r1.converged && r8.converged);
        assert_eq!(r1.iterations, r8.iterations, "same math, same iterations");
        for k in 0..24isize {
            for j in 0..24isize {
                assert_eq!(u1.at(j, k), u8.at(j, k), "solution differs at ({j},{k})");
            }
        }
        assert!(residual_norm(&op, &u1, &b) < 1e-7);
    }

    #[test]
    fn deeper_halo_means_fewer_exchanges() {
        let (r1, ..) = solve_with(32, 1, PreconKind::None, PpcgOpts::with_depth(1));
        let (r16, ..) = solve_with(32, 16, PreconKind::None, PpcgOpts::with_depth(16));
        assert_eq!(
            r1.iterations, r16.iterations,
            "same math must take the same iterations"
        );
        // exclude the identical CG-prestep phase (presteps p-exchanges +
        // one u-exchange each), leaving only the PPCG phase protocol
        let presteps = PpcgOpts::with_depth(1).presteps + 1;
        let ex1 = r1.trace.total_halo_exchanges() - presteps;
        let ex16 = r16.trace.total_halo_exchanges() - presteps;
        assert!(
            (ex16 as f64) < (ex1 as f64) * 0.25,
            "depth 16 must slash exchange count: {ex16} vs {ex1}"
        );
        // while moving roughly the same total volume (strip units scale
        // with depth x count; same sweeps -> comparable data)
        let v1 = r1.trace.halo_strip_units() - presteps;
        let v16 = r16.trace.halo_strip_units() - presteps;
        let ratio = v16 as f64 / v1 as f64;
        assert!(
            ratio > 0.5 && ratio < 2.5,
            "total halo volume should be comparable, ratio {ratio}"
        );
    }

    #[test]
    fn ppcg_slashes_reductions_versus_cg() {
        let n = 32;
        let (op, b) = serial_problem(n, 1);
        let comm = SerialComm::new();
        let d = Decomposition2D::with_grid(n, n, 1, 1);
        let layout = HaloLayout::new(&d, 0);
        let tile = Tile::new(&op, &layout, &comm);
        let m = Preconditioner::setup(PreconKind::None, &op, 0);

        let mut ws = Workspace::new(n, n, 1);
        let mut u1 = b.clone();
        let cg = cg_solve_impl(&tile, &mut u1, &b, &m, &mut ws, SolveOpts::with_eps(1e-9));

        let (pp, u2, ..) = solve_with(n, 1, PreconKind::None, PpcgOpts::default());
        assert!(cg.converged && pp.converged);
        // reductions per spmv sweep is the communication-avoidance metric
        let cg_ratio = cg.trace.reductions as f64 / cg.trace.spmv.total() as f64;
        let pp_ratio = pp.trace.reductions as f64 / pp.trace.spmv.total() as f64;
        assert!(
            pp_ratio < 0.5 * cg_ratio,
            "CPPCG must reduce reductions per sweep: {pp_ratio} vs {cg_ratio}"
        );
        // both reach the same solution
        for k in 0..n as isize {
            for j in 0..n as isize {
                assert!(
                    (u1.at(j, k) - u2.at(j, k)).abs() < 1e-5 * u1.at(j, k).abs().max(1.0),
                    "solutions diverge at ({j},{k})"
                );
            }
        }
    }

    #[test]
    fn inner_iterations_counted() {
        let (res, ..) = solve_with(24, 1, PreconKind::None, PpcgOpts::default());
        let presteps = PpcgOpts::default().presteps.min(res.iterations);
        let outer_after_pre = res.trace.outer_iterations - presteps;
        if outer_after_pre > 0 {
            // one initial application plus one per outer iteration
            assert_eq!(
                res.trace.inner_iterations,
                (outer_after_pre + 1) * PpcgOpts::default().inner_steps as u64
            );
        }
    }

    #[test]
    fn labels_match_paper_legend() {
        assert_eq!(PpcgOpts::with_depth(16).label(), "PPCG-16");
        assert_eq!(PpcgOpts::default().label(), "PPCG-1");
    }
}
