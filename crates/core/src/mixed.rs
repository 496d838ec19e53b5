//! Mixed- and reduced-precision solvers: precision as a design-space
//! axis.
//!
//! TeaLeaf's kernels are memory-bandwidth bound, so halving the bytes
//! per value is the single biggest per-node lever on modern hardware.
//! The mixed solvers here are not separate algorithms: they run the same
//! loops as their `f64` families, with the bandwidth-dominant work moved
//! onto an `F32Side` — the demoted operator, the preconditioner
//! assembled from it and the `f32` working fields.
//!
//! * [`MixedCg`] (`"mixed_cg"`) — the one PCG loop of [`crate::cg`] with
//!   `z = M⁻¹r` taken through the `f32` round trip: demote `r`, apply
//!   the `f32` preconditioner, promote `z`. The recurrence, every dot
//!   product and the convergence test stay in `f64`; the
//!   preconditioner only has to be *some* fixed SPD operator for CG to
//!   converge, so the solve still reaches full `f64` tolerances.
//! * [`MixedPpcg`] (`"mixed_ppcg"`) — CPPCG through the same
//!   [`crate::ppcg`] solve as `"ppcg"`, with the inner `m`-step
//!   Chebyshev body (the dominant flop/byte cost, matrix-powers schedule
//!   included) instantiated at `f32`.
//! * [`MixedRefinement`] (`"mixed_chebyshev"`, `"mixed_richardson"`) —
//!   the shared `f64` CG prelude, then iterative refinement: each outer
//!   iteration runs one `f32` block of the [`InnerAccel`] smoother
//!   against the demoted residual and re-derives the residual in `f64`.
//! * [`CgF32`] (`"cg_f32"`) — every kernel in `f32`, for the honest
//!   end of the precision sweep: it demonstrates *why* mixed precision
//!   exists, stalling at the `f32` round-off floor instead of reaching
//!   `f64` tolerances. Its residual replacement and stagnation guard are
//!   a different stopping rule, so it keeps a loop of its own.
//!
//! Halo exchanges are **precision-native**: the `tea-comms` wire format
//! is generic over the field scalar, so every `f32` field here
//! exchanges 4-byte elements directly — half the message volume of the
//! `f64` solvers, with no conversion staging on either side.
//! [`solver_for_precision`] maps a `(solver, precision)` request from
//! the deck/CLI/builder onto the registered variant.

use crate::api::{IterativeSolver, Precision, SolveContext, SolverError, SolverParams};
use crate::cg::{eigen_prelude, ended, pcg, PcgStart, Prelude};
use crate::eigen::EigenEstimate;
use crate::ops::TileOperator;
use crate::ppcg::{cheb_inner, ppcg_solve_impl, InnerCheb, PpcgOpts};
use crate::precon::{PreconKind, Preconditioner};
use crate::registry::SolverRegistry;
use crate::solver::{SolveOpts, Tile, Workspace};
use crate::trace::{SolveResult, SolveStatus, SolveTrace};
use crate::vector;
use tea_comms::Communicator;
use tea_mesh::{Field2D, Field2F, Scalar};

/// Maps a `(solver, precision)` request onto the registered solver that
/// implements it — the one rule behind the deck's `tl_precision`, the
/// CLI's `--precision` and [`crate::Solve::precision`].
///
/// A solver whose [`crate::SolverMeta::precision`] already matches is
/// returned unchanged; otherwise the request is re-routed within the
/// method family (`cg`/`cg_fused` ↔ `mixed_cg`/`cg_f32`, `ppcg` ↔
/// `mixed_ppcg`), and `Precision::F64` demotes a reduced-precision name
/// back to its `f64` family solver.
///
/// # Errors
/// [`SolverError::UnknownSolver`] for an unregistered name, and
/// [`SolverError::PrecisionUnsupported`] when no variant exists — in
/// particular for serial-only baselines like `amg`.
pub fn solver_for_precision(
    name: &str,
    precision: Precision,
    registry: &SolverRegistry,
) -> Result<String, SolverError> {
    let meta = *registry.resolve(name)?;
    if meta.precision == precision {
        return Ok(meta.name.to_string());
    }
    if meta.serial_only {
        return Err(SolverError::PrecisionUnsupported {
            solver: meta.name.to_string(),
            precision,
            reason: format!(
                "'{}' is a serial-only f64 baseline; run it without a precision override",
                meta.name
            ),
        });
    }
    let family = match meta.name {
        "mixed_cg" | "cg_f32" => "cg",
        "mixed_ppcg" => "ppcg",
        "mixed_chebyshev" => "chebyshev",
        "mixed_richardson" => "richardson",
        other => other,
    };
    let target = match (family, precision) {
        (_, Precision::F64) => Some(family),
        ("cg" | "cg_fused", Precision::Mixed) => Some("mixed_cg"),
        ("ppcg", Precision::Mixed) => Some("mixed_ppcg"),
        ("chebyshev", Precision::Mixed) => Some("mixed_chebyshev"),
        ("richardson", Precision::Mixed) => Some("mixed_richardson"),
        ("cg" | "cg_fused", Precision::F32) => Some("cg_f32"),
        _ => None,
    };
    match target {
        Some(t) => Ok(registry.resolve(t)?.name.to_string()),
        None => Err(SolverError::PrecisionUnsupported {
            solver: meta.name.to_string(),
            precision,
            reason: format!(
                "no {} variant of '{}' is registered (variants cover the cg, cg_fused, \
                 ppcg, chebyshev and richardson families)",
                precision.label(),
                meta.name
            ),
        }),
    }
}

/// The `f32` side of a mixed- or single-precision solver: the demoted
/// operator, the preconditioner assembled from it, and `f32` working
/// fields shaped like the `f64` workspace. Re-assembly per time step
/// keeps the fields, so they are allocated once per run.
#[derive(Debug, Clone, Default)]
pub(crate) struct F32Side {
    demoted: Option<(TileOperator<f32>, Preconditioner<f32>)>,
    fields: Vec<Field2F>,
}

impl F32Side {
    /// Demotes `op` and assembles a `kind` preconditioner from it, valid
    /// up to matrix-powers extension `ext_max`.
    fn assemble(&mut self, kind: PreconKind, op: &TileOperator, ext_max: usize) {
        let op32: TileOperator<f32> = op.convert();
        let precon32 = Preconditioner::setup(kind, &op32, ext_max);
        self.demoted = Some((op32, precon32));
    }

    fn is_assembled(&self) -> bool {
        self.demoted.is_some()
    }

    /// The demoted operator and preconditioner, plus `N` working fields
    /// shaped like `like` (reallocated only when the shape changes).
    fn parts<const N: usize>(
        &mut self,
        like: &Field2D,
    ) -> (&TileOperator<f32>, &Preconditioner<f32>, &mut [Field2F; N]) {
        let fits =
            |g: &Field2F| g.nx() == like.nx() && g.ny() == like.ny() && g.halo() == like.halo();
        if self.fields.len() != N || !self.fields.iter().all(fits) {
            self.fields = (0..N)
                .map(|_| Field2F::new(like.nx(), like.ny(), like.halo()))
                .collect();
        }
        let (op, precon) = self.demoted.as_ref().expect("assembled before use");
        let fields = (&mut self.fields[..]).try_into().expect("sized above");
        (op, precon, fields)
    }

    /// `z = M₃₂⁻¹ r` through the `f32` round trip: demote `r`, apply the
    /// single-precision preconditioner, promote the result. The two
    /// conversion sweeps are recorded as vector ops so traces stay honest
    /// about the extra memory traffic.
    fn precondition(&mut self, r: &Field2D, z: &mut Field2D, trace: &mut SolveTrace) {
        let (op, precon, [r32, z32]) = self.parts(r);
        trace.vector_ops.record(0);
        r.convert_into(r32);
        precon.apply(r32, z32, &op.bounds, 0, trace);
        trace.vector_ops.record(0);
        z32.convert_into(z);
    }

    /// The inner Chebyshev solve of `A z ≈ r` in `f32`: the outer
    /// residual is demoted in and the correction promoted out, both
    /// recorded as vector ops.
    pub(crate) fn cheb_inner<C: Communicator + ?Sized>(
        &mut self,
        tile: &Tile<'_, C>,
        inner: &InnerCheb,
        ws: &mut Workspace,
        trace: &mut SolveTrace,
    ) {
        let (op, precon, [z, rr, sd, tmp]) = self.parts(&ws.r);
        trace.vector_ops.record(0);
        ws.r.convert_into(rr);
        cheb_inner(tile, op, precon, inner, [z, rr, sd, tmp], trace);
        trace.vector_ops.record(0);
        z.convert_into(&mut ws.z);
    }

    /// The inner `m`-step damped Richardson solve of `A z ≈ r` from
    /// `z = 0` in `f32`: `z += ω M⁻¹ r̃`, with the inner residual `r̃`
    /// maintained incrementally (`r̃ −= A·(ω M⁻¹ r̃)`) on the depth-1
    /// schedule.
    fn richardson_inner<C: Communicator + ?Sized>(
        &mut self,
        tile: &Tile<'_, C>,
        omega: f64,
        m: usize,
        ws: &mut Workspace,
        trace: &mut SolveTrace,
    ) {
        let (op, precon, [z, rr, sd, w, tmp]) = self.parts(&ws.r);
        let bounds = &op.bounds;
        vector::zero(z, bounds, 1, trace);
        trace.vector_ops.record(0);
        ws.r.convert_into(rr);
        let omega32 = f32::from_f64(omega);

        for _ in 0..m {
            precon.apply(rr, tmp, bounds, 0, trace);
            vector::scaled_copy(sd, tmp, omega32, bounds, 0, trace);
            tile.exchange(&mut [&mut *sd], 1, trace);
            op.apply(sd, w, 0, trace);
            vector::axpy(z, 1.0f32, sd, bounds, 0, trace);
            vector::axpy(rr, -1.0f32, w, bounds, 0, trace);
        }
        trace.inner_iterations += m as u64;

        trace.vector_ops.record(0);
        z.convert_into(&mut ws.z);
    }
}

/// PCG with an `f32` preconditioner inside an `f64` outer recurrence —
/// the `"mixed_cg"` registry entry.
///
/// The demote/apply/promote round trip is the `z = M⁻¹r` step of the
/// one PCG loop; everything else (halo exchange, fused `w = A·p` sweep,
/// dot products, vector updates, convergence test) is bit-for-bit the
/// plain [`crate::Cg`] protocol. Because CG tolerates any fixed SPD
/// preconditioner, the method converges to the same `tl_eps` tolerance
/// as full `f64` CG.
#[derive(Debug, Clone, Default)]
pub struct MixedCg {
    kind: PreconKind,
    opts: SolveOpts,
    side: F32Side,
}

impl MixedCg {
    /// A mixed-precision CG using preconditioner `kind` (applied in
    /// `f32`).
    pub fn new(kind: PreconKind) -> Self {
        MixedCg {
            kind,
            ..Default::default()
        }
    }

    /// Registry factory: consumes [`SolverParams::precon`].
    pub fn from_params(params: &SolverParams) -> Self {
        MixedCg::new(params.precon)
    }
}

impl IterativeSolver for MixedCg {
    fn name(&self) -> &'static str {
        "mixed_cg"
    }

    fn label(&self) -> String {
        "CG-mixed".into()
    }

    fn prepare(&mut self, ctx: &SolveContext<'_>, opts: &SolveOpts) {
        self.opts = *opts;
        self.side.assemble(self.kind, ctx.tile.op, 0);
    }

    fn solve(
        &mut self,
        ctx: &SolveContext<'_>,
        u: &mut Field2D,
        b: &Field2D,
        ws: &mut Workspace,
        trace: &mut SolveTrace,
    ) -> SolveResult {
        if !self.side.is_assembled() {
            self.side.assemble(self.kind, ctx.tile.op, 0);
        }
        let start = PcgStart::Fresh(SolveTrace::new(self.label()));
        let side = &mut self.side;
        let (result, _) = pcg(ctx.tile, u, b, ws, self.opts, start, u64::MAX, |ws, t| {
            side.precondition(&ws.r, &mut ws.z, t)
        });
        trace.merge(&result.trace);
        result
    }
}

/// CPPCG with the inner Chebyshev smoothing in `f32` — the
/// `"mixed_ppcg"` registry entry.
///
/// The `m`-step inner solve dominates CPPCG's per-iteration cost
/// (`m + 1` stencil sweeps per outer iteration); running it in `f32`
/// halves its memory traffic while the outer PCG recurrence, both dot
/// products and the convergence test stay in `f64`. The matrix-powers
/// deep-halo schedule is preserved, and its exchanges move native
/// `f32` payloads — half the deep-halo message bytes of plain PPCG.
/// The CG presteps and their Lanczos eigenvalue estimate run in `f64`;
/// the safety widening absorbs the (tiny) spectral difference between
/// the `f64` and demoted operators.
#[derive(Debug, Clone, Default)]
pub struct MixedPpcg {
    kind: PreconKind,
    ppcg: PpcgOpts,
    opts: SolveOpts,
    precon: Option<Preconditioner>,
    side: F32Side,
    hint: Option<EigenEstimate>,
    last_est: Option<EigenEstimate>,
}

impl MixedPpcg {
    /// A mixed-precision CPPCG with preconditioner `kind` and
    /// configuration `ppcg`.
    pub fn new(kind: PreconKind, ppcg: PpcgOpts) -> Self {
        MixedPpcg {
            kind,
            ppcg,
            ..Default::default()
        }
    }

    /// Registry factory: consumes `precon`, `inner_steps`, `halo_depth`,
    /// `presteps` and `eigen_safety`.
    pub fn from_params(params: &SolverParams) -> Self {
        MixedPpcg::new(params.precon, PpcgOpts::from_params(params))
    }

    fn assemble(&mut self, ctx: &SolveContext<'_>) {
        let depth = self.ppcg.halo_depth;
        self.precon = Some(Preconditioner::setup(self.kind, ctx.tile.op, depth));
        self.side.assemble(self.kind, ctx.tile.op, depth);
    }
}

impl IterativeSolver for MixedPpcg {
    fn name(&self) -> &'static str {
        "mixed_ppcg"
    }

    fn label(&self) -> String {
        format!("{}-mixed", self.ppcg.label())
    }

    fn halo_depth(&self) -> usize {
        self.ppcg.halo_depth.max(1)
    }

    fn prepare(&mut self, ctx: &SolveContext<'_>, opts: &SolveOpts) {
        self.opts = *opts;
        self.assemble(ctx);
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
            self.assemble(ctx);
        }
        let result = ppcg_solve_impl(
            ctx.tile,
            u,
            b,
            self.precon.as_ref().expect("just prepared"),
            ws,
            self.opts,
            self.ppcg,
            self.hint,
            Some(&mut self.side),
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

/// Which `f32` smoother runs inside the [`MixedRefinement`] outer loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InnerAccel {
    /// Chebyshev acceleration (`"mixed_chebyshev"`): the CPPCG inner
    /// body at depth 1.
    #[default]
    Chebyshev,
    /// Damped Richardson sweeps `z += ω M⁻¹ r̃` at the Chebyshev-optimal
    /// `ω = 2/(λmin+λmax)` (`"mixed_richardson"`).
    Richardson,
}

/// Iterative refinement around an `f32` smoother — the
/// `"mixed_chebyshev"` and `"mixed_richardson"` registry entries.
///
/// The `f64` CG prelude estimates the spectrum. Each outer iteration
/// then demotes the current `f64` residual, runs `check_interval` steps
/// of the [`InnerAccel`] smoother of `A z ≈ r` in `f32`, promotes the
/// correction and re-derives the residual in `f64`. The outer update
/// and the convergence control never leave `f64`, so the method reaches
/// `f64` tolerances while the bandwidth-dominant sweeps move half the
/// bytes.
#[derive(Debug, Clone, Default)]
pub struct MixedRefinement {
    accel: InnerAccel,
    kind: PreconKind,
    presteps: u64,
    eigen_safety: f64,
    inner_steps: usize,
    opts: SolveOpts,
    precon: Option<Preconditioner>,
    side: F32Side,
    hint: Option<EigenEstimate>,
    last_est: Option<EigenEstimate>,
}

impl MixedRefinement {
    /// A mixed-precision refinement solver running `accel` with
    /// preconditioner `kind`, `presteps` CG presteps and `inner_steps`
    /// f32 sweeps per `f64` residual refresh.
    pub fn new(
        accel: InnerAccel,
        kind: PreconKind,
        presteps: u64,
        eigen_safety: f64,
        inner_steps: usize,
    ) -> Self {
        MixedRefinement {
            accel,
            kind,
            presteps,
            eigen_safety,
            inner_steps: inner_steps.max(1),
            ..Default::default()
        }
    }

    /// Registry factory: consumes `precon`, `presteps`, `eigen_safety`
    /// and `check_interval` (as the f32 block length).
    pub fn from_params(accel: InnerAccel, params: &SolverParams) -> Self {
        MixedRefinement::new(
            accel,
            params.precon,
            params.presteps,
            params.eigen_safety,
            params.check_interval.max(1) as usize,
        )
    }

    fn assemble(&mut self, ctx: &SolveContext<'_>) {
        self.precon = Some(Preconditioner::setup(self.kind, ctx.tile.op, 0));
        self.side.assemble(self.kind, ctx.tile.op, 0);
    }
}

impl IterativeSolver for MixedRefinement {
    fn name(&self) -> &'static str {
        match self.accel {
            InnerAccel::Chebyshev => "mixed_chebyshev",
            InnerAccel::Richardson => "mixed_richardson",
        }
    }

    fn label(&self) -> String {
        match self.accel {
            InnerAccel::Chebyshev => "Chebyshev-mixed".into(),
            InnerAccel::Richardson => "Richardson-mixed".into(),
        }
    }

    fn prepare(&mut self, ctx: &SolveContext<'_>, opts: &SolveOpts) {
        self.opts = *opts;
        self.assemble(ctx);
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
            self.assemble(ctx);
        }
        let result = self.refine(ctx.tile, u, b, ws);
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

impl MixedRefinement {
    /// The prelude, then the `f64` refinement loop around the `f32`
    /// smoother blocks: one reduction per block.
    fn refine<C: Communicator + ?Sized>(
        &mut self,
        tile: &Tile<'_, C>,
        u: &mut Field2D,
        b: &Field2D,
        ws: &mut Workspace,
    ) -> SolveResult {
        let bounds = &tile.op.bounds;
        let opts = self.opts;
        let precon = self.precon.as_ref().expect("assembled before use");
        let label = self.label();
        let prelude = eigen_prelude(
            tile,
            u,
            b,
            precon,
            ws,
            opts,
            self.presteps,
            self.eigen_safety,
            self.hint,
            &label,
        );
        let (pre, est) = match prelude {
            Prelude::Continue(pre, est) => (pre, est),
            Prelude::Done(done) => return done,
        };
        let mut trace = pre.trace;
        let m = self.inner_steps;
        let inner = InnerCheb::new(est, m, 1);
        let omega = 2.0 / (est.min + est.max);

        tile.exchange(&mut [u], 1, &mut trace);
        tile.op.residual(u, b, &mut ws.r, 0, &mut trace);

        let target = opts.eps * pre.initial_residual;
        let mut iterations = pre.iterations;
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

            match self.accel {
                InnerAccel::Chebyshev => self.side.cheb_inner(tile, &inner, ws, &mut trace),
                InnerAccel::Richardson => {
                    self.side.richardson_inner(tile, omega, m, ws, &mut trace)
                }
            }

            vector::axpy(u, 1.0, &ws.z, bounds, 0, &mut trace);
            tile.exchange(&mut [u], 1, &mut trace);
            tile.op.residual(u, b, &mut ws.r, 0, &mut trace);

            // one reduction per m-step block: the f64 convergence control
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
                status = SolveStatus::Converged;
                break;
            }
        }
        ended(
            status,
            iterations,
            pre.initial_residual,
            final_residual,
            trace,
        )
    }
}

/// The `f32` working set of [`CgF32`]: every vector of the recurrence,
/// exchanged over the wire at native `f32` width.
#[derive(Debug, Clone)]
struct FieldsF32 {
    u: Field2F,
    b: Field2F,
    p: Field2F,
    r: Field2F,
    w: Field2F,
    z: Field2F,
}

/// Fully single-precision PCG — the `"cg_f32"` registry entry and the
/// honest floor of the precision sweep.
///
/// Every kernel (residual, fused apply-dot, preconditioner, vector
/// updates) runs in `f32`; dot products are widened to `f64` only for
/// the scalar recurrence and the convergence test. The attainable
/// relative residual is limited to roughly `κ(A)·ε_f32`, so tight
/// `f64`-era tolerances (the TeaLeaf default `1e-10`) are generally
/// unreachable: a stagnation guard ends the solve once the residual
/// stops improving, reporting `converged: false` honestly rather than
/// spinning to the iteration cap.
#[derive(Debug, Clone, Default)]
pub struct CgF32 {
    kind: PreconKind,
    opts: SolveOpts,
    side: F32Side,
    fields: Option<FieldsF32>,
}

/// Iterations without a ≥0.1% residual improvement before [`CgF32`]
/// declares stagnation at the `f32` round-off floor.
const F32_STALL_LIMIT: u64 = 100;

impl CgF32 {
    /// A single-precision CG using preconditioner `kind`.
    pub fn new(kind: PreconKind) -> Self {
        CgF32 {
            kind,
            opts: SolveOpts::default(),
            side: F32Side::default(),
            fields: None,
        }
    }

    /// Registry factory: consumes [`SolverParams::precon`].
    pub fn from_params(params: &SolverParams) -> Self {
        CgF32::new(params.precon)
    }
}

impl IterativeSolver for CgF32 {
    fn name(&self) -> &'static str {
        "cg_f32"
    }

    fn label(&self) -> String {
        "CG-f32".into()
    }

    fn prepare(&mut self, ctx: &SolveContext<'_>, opts: &SolveOpts) {
        self.opts = *opts;
        self.side.assemble(self.kind, ctx.tile.op, 0);
    }

    fn solve(
        &mut self,
        ctx: &SolveContext<'_>,
        u: &mut Field2D,
        b: &Field2D,
        ws: &mut Workspace,
        trace: &mut SolveTrace,
    ) -> SolveResult {
        if !self.side.is_assembled() {
            self.side.assemble(self.kind, ctx.tile.op, 0);
        }
        let fits =
            |g: &Field2F, f: &Field2D| g.nx() == f.nx() && g.ny() == f.ny() && g.halo() == f.halo();
        if !self
            .fields
            .as_ref()
            .is_some_and(|s| fits(&s.u, u) && fits(&s.b, b) && fits(&s.p, &ws.p))
        {
            let like = |f: &Field2D| Field2F::new(f.nx(), f.ny(), f.halo());
            self.fields = Some(FieldsF32 {
                u: like(u),
                b: like(b),
                p: like(&ws.p),
                r: like(&ws.r),
                w: like(&ws.w),
                z: like(&ws.z),
            });
        }
        let (op32, precon32) = self.side.demoted.as_ref().expect("just prepared");
        let result = cg_f32_solve(
            ctx.tile,
            u,
            b,
            op32,
            precon32,
            self.fields.as_mut().expect("just sized"),
            self.opts,
        );
        trace.merge(&result.trace);
        result
    }
}

fn cg_f32_solve<C: Communicator + ?Sized>(
    tile: &Tile<'_, C>,
    u: &mut Field2D,
    b: &Field2D,
    op32: &TileOperator<f32>,
    precon32: &Preconditioner<f32>,
    f: &mut FieldsF32,
    opts: SolveOpts,
) -> SolveResult {
    let mut trace = SolveTrace::new("CG-f32");
    let bounds = &op32.bounds;

    // fill u's ghosts in f64 once, then demote the whole working set
    tile.exchange(&mut [u], 1, &mut trace);
    trace.vector_ops.record(0);
    u.convert_into(&mut f.u);
    b.convert_into(&mut f.b);

    op32.residual(&f.u, &f.b, &mut f.r, 0, &mut trace);
    precon32.apply(&f.r, &mut f.z, bounds, 0, &mut trace);
    vector::copy(&mut f.p, &f.z, bounds, 0, &mut trace);

    // all four reductions below are width-native: the f32 partial dots
    // fold across ranks in f32 (4 bytes on the wire) and only the folded
    // scalar is widened for the f64 control logic
    let rz_local = vector::dot_local(&f.r, &f.z, bounds, &mut trace);
    let mut rro = tile.reduce_sum_native(rz_local, &mut trace).to_f64();
    if !rro.is_finite() {
        return SolveResult {
            converged: false,
            iterations: 0,
            initial_residual: f64::NAN,
            final_residual: f64::NAN,
            status: SolveStatus::Diverged { iteration: 0 },
            trace,
        };
    }
    let initial_residual = rro.max(0.0).sqrt();

    if initial_residual == 0.0 {
        return SolveResult {
            converged: true,
            iterations: 0,
            initial_residual,
            final_residual: 0.0,
            status: SolveStatus::Converged,
            trace,
        };
    }
    let target = opts.eps * initial_residual;

    let mut converged = false;
    let mut status = SolveStatus::IterationLimit;
    let mut final_residual = initial_residual;
    let mut iterations = 0;
    let mut best = f64::INFINITY;
    let mut best_true = f64::INFINITY;
    let mut stalled = 0u64;

    while iterations < opts.max_iters {
        if tile.controls.should_stop() {
            status = SolveStatus::Cancelled {
                iteration: iterations,
            };
            break;
        }
        iterations += 1;
        trace.outer_iterations += 1;
        tile.controls.poke_f32(iterations, &mut f.u, &mut f.r);

        tile.exchange(&mut [&mut f.p], 1, &mut trace);
        let pw_local = op32.apply_fused_dot(&f.p, &mut f.w, &mut trace);
        let pw = tile.reduce_sum_native(pw_local, &mut trace).to_f64();
        if !pw.is_finite() {
            status = SolveStatus::Diverged {
                iteration: iterations,
            };
            final_residual = f64::NAN;
            break;
        }
        if pw <= 0.0 {
            // f32 breakdown: the search direction lost positivity
            break;
        }
        let alpha = rro / pw;

        vector::axpy(&mut f.u, f32::from_f64(alpha), &f.p, bounds, 0, &mut trace);
        vector::axpy(&mut f.r, f32::from_f64(-alpha), &f.w, bounds, 0, &mut trace);

        precon32.apply(&f.r, &mut f.z, bounds, 0, &mut trace);
        let rz_local = vector::dot_local(&f.r, &f.z, bounds, &mut trace);
        let rrn = tile.reduce_sum_native(rz_local, &mut trace).to_f64();

        if !rrn.is_finite() {
            status = SolveStatus::Diverged {
                iteration: iterations,
            };
            final_residual = f64::NAN;
            break;
        }
        final_residual = rrn.max(0.0).sqrt();
        if final_residual <= target {
            // The f32 recurrence residual drifts below the true residual
            // long before convergence (round-off in the u updates), so a
            // recurrence-only test would claim tolerances the solution
            // does not meet. Confirm against the true residual
            // `b − A·u` — classic residual replacement — and restart the
            // direction from it if the claim was premature.
            tile.exchange(&mut [&mut f.u], 1, &mut trace);
            op32.residual(&f.u, &f.b, &mut f.r, 0, &mut trace);
            precon32.apply(&f.r, &mut f.z, bounds, 0, &mut trace);
            let rz_true = vector::dot_local(&f.r, &f.z, bounds, &mut trace);
            let rr_true = tile.reduce_sum_native(rz_true, &mut trace).to_f64();
            if !rr_true.is_finite() {
                status = SolveStatus::Diverged {
                    iteration: iterations,
                };
                final_residual = f64::NAN;
                break;
            }
            let true_res = rr_true.max(0.0).sqrt();
            final_residual = true_res;
            if true_res <= target {
                converged = true;
                status = SolveStatus::Converged;
                break;
            }
            if rr_true <= 0.0 || true_res >= 0.999 * best_true {
                // the true residual is no longer improving: that is the
                // f32 round-off floor — report unconverged honestly
                break;
            }
            best_true = true_res;
            // the recurrence residual restarts from the (much larger)
            // true residual: reset the recurrence stall watermark too,
            // or the whole re-descent would count as stalled
            best = true_res;
            stalled = 0;
            vector::copy(&mut f.p, &f.z, bounds, 0, &mut trace);
            rro = rr_true;
            continue;
        }
        if rrn <= 0.0 {
            break;
        }
        if final_residual < 0.999 * best {
            best = final_residual;
            stalled = 0;
        } else {
            stalled += 1;
            if stalled >= F32_STALL_LIMIT {
                // flatlined at the f32 round-off floor
                break;
            }
        }

        let beta = rrn / rro;
        vector::xpay(&mut f.p, &f.z, f32::from_f64(beta), bounds, 0, &mut trace);
        rro = rrn;
    }

    trace.vector_ops.record(0);
    f.u.convert_into(u);

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
    use crate::builder::{crooked_pipe_system, Solve};

    fn run_named(
        name: &str,
        n: usize,
        eps: f64,
        precon: PreconKind,
        depth: usize,
    ) -> (SolveResult, Field2D, TileOperator, Field2D) {
        let (op, b) = crooked_pipe_system(n, 0.04, depth.max(1));
        let mut u = b.clone();
        let result = Solve::on(&op)
            .with_solver(name)
            .precon(precon)
            .halo_depth(depth.max(1))
            .eps(eps)
            .run(&mut u, &b)
            .expect("registered solver");
        (result, u, op, b)
    }

    fn residual_norm(op: &TileOperator, u: &Field2D, b: &Field2D) -> f64 {
        let mut t = SolveTrace::new("check");
        let mut r = Field2D::new(u.nx(), u.ny(), u.halo());
        op.residual(u, b, &mut r, 0, &mut t);
        r.interior_norm() / b.interior_norm()
    }

    #[test]
    fn mixed_cg_reaches_f64_tolerance() {
        for precon in [
            PreconKind::None,
            PreconKind::Diagonal,
            PreconKind::BlockJacobi,
        ] {
            let (res, u, op, b) = run_named("mixed_cg", 32, 1e-10, precon, 1);
            assert!(res.converged, "{precon:?}: {res:?}");
            assert!(
                residual_norm(&op, &u, &b) < 1e-8,
                "{precon:?} residual too large"
            );
        }
    }

    #[test]
    fn mixed_cg_matches_f64_cg_solution() {
        let (r64, u64f, op, b) = run_named("cg", 24, 1e-10, PreconKind::BlockJacobi, 1);
        let (rmx, umx, ..) = run_named("mixed_cg", 24, 1e-10, PreconKind::BlockJacobi, 1);
        assert!(r64.converged && rmx.converged);
        // both converged to 1e-10: solutions agree far beyond f32 precision,
        // proving the outer f64 recurrence controls the accuracy
        for k in 0..24isize {
            for j in 0..24isize {
                let (a, c) = (umx.at(j, k), u64f.at(j, k));
                assert!(
                    (a - c).abs() <= 1e-6 * c.abs().max(1e-12),
                    "solutions diverge at ({j},{k}): {a} vs {c}"
                );
            }
        }
        let _ = (op, b);
    }

    #[test]
    fn mixed_cg_iteration_count_stays_close_to_f64() {
        let (r64, ..) = run_named("cg", 32, 1e-10, PreconKind::Diagonal, 1);
        let (rmx, ..) = run_named("mixed_cg", 32, 1e-10, PreconKind::Diagonal, 1);
        assert!(
            rmx.iterations <= r64.iterations + r64.iterations / 2 + 5,
            "f32 preconditioning should not blow up iterations: {} vs {}",
            rmx.iterations,
            r64.iterations
        );
    }

    #[test]
    fn mixed_ppcg_reaches_f64_tolerance_at_depths() {
        for depth in [1usize, 4] {
            let (res, u, op, b) = run_named("mixed_ppcg", 32, 1e-9, PreconKind::None, depth);
            assert!(res.converged, "depth {depth}: {res:?}");
            assert!(residual_norm(&op, &u, &b) < 1e-7, "depth {depth}");
        }
    }

    #[test]
    fn mixed_chebyshev_and_richardson_reach_f64_tolerance() {
        for name in ["mixed_chebyshev", "mixed_richardson"] {
            let (res, u, op, b) = run_named(name, 32, 1e-9, PreconKind::Diagonal, 1);
            assert!(res.converged, "{name}: {res:?}");
            assert!(residual_norm(&op, &u, &b) < 1e-7, "{name}");
            // the damping/shift came from a recorded eigenvalue estimate
            assert!(res.trace.eigen_bounds.is_some(), "{name}");
        }
    }

    #[test]
    fn cg_f32_stalls_above_f64_tolerance_but_solves_loose_ones() {
        // loose tolerance: f32 CG converges fine
        let (loose, u, op, b) = run_named("cg_f32", 24, 1e-4, PreconKind::None, 1);
        assert!(loose.converged, "{loose:?}");
        assert!(residual_norm(&op, &u, &b) < 1e-3);
        // f64-grade tolerance: the stagnation guard must stop it early,
        // unconverged, well before the 10k iteration cap
        let (tight, ..) = run_named("cg_f32", 24, 1e-12, PreconKind::None, 1);
        assert!(!tight.converged, "f32 cannot honestly reach 1e-12");
        assert!(
            tight.iterations < 2000,
            "stagnation guard should cut the run short, ran {}",
            tight.iterations
        );
    }

    #[test]
    fn precision_routing_table() {
        let reg = SolverRegistry::builtin();
        let route = |n: &str, p: Precision| solver_for_precision(n, p, &reg).unwrap();
        assert_eq!(route("cg", Precision::F64), "cg");
        assert_eq!(route("cg", Precision::Mixed), "mixed_cg");
        assert_eq!(route("cg_fused", Precision::Mixed), "mixed_cg");
        assert_eq!(route("cg", Precision::F32), "cg_f32");
        assert_eq!(route("ppcg", Precision::Mixed), "mixed_ppcg");
        assert_eq!(route("chebyshev", Precision::Mixed), "mixed_chebyshev");
        assert_eq!(route("richardson", Precision::Mixed), "mixed_richardson");
        assert_eq!(route("mixed_cg", Precision::Mixed), "mixed_cg");
        assert_eq!(route("mixed_cg", Precision::F64), "cg");
        assert_eq!(route("cg_f32", Precision::F64), "cg");
        assert_eq!(route("mixed_ppcg", Precision::F64), "ppcg");
        assert_eq!(route("mixed_chebyshev", Precision::F64), "chebyshev");
        assert_eq!(route("mixed_richardson", Precision::F64), "richardson");
        // aliases route through canonical names
        assert_eq!(route("cppcg", Precision::Mixed), "mixed_ppcg");
    }

    #[test]
    fn precision_routing_rejects_uncovered_methods() {
        let reg = SolverRegistry::builtin();
        let err = solver_for_precision("jacobi", Precision::Mixed, &reg).unwrap_err();
        assert!(
            matches!(err, SolverError::PrecisionUnsupported { .. }),
            "{err}"
        );
        assert!(err.to_string().contains("jacobi"), "{err}");
        let err = solver_for_precision("ppcg", Precision::F32, &reg).unwrap_err();
        assert!(err.to_string().contains("f32"), "{err}");
        let err = solver_for_precision("nonexistent", Precision::Mixed, &reg).unwrap_err();
        assert!(matches!(err, SolverError::UnknownSolver { .. }), "{err}");
    }

    #[test]
    fn mixed_trace_counts_demotion_sweeps() {
        // mixed CG must record strictly more vector ops than f64 CG
        // (two conversion sweeps per preconditioner application) while
        // keeping the same reduction and exchange protocol
        let (r64, ..) = run_named("cg", 16, 1e-10, PreconKind::Diagonal, 1);
        let (rmx, ..) = run_named("mixed_cg", 16, 1e-10, PreconKind::Diagonal, 1);
        assert!(r64.converged && rmx.converged);
        let per_iter_64 = r64.trace.vector_ops.total() as f64 / r64.iterations as f64;
        let per_iter_mx = rmx.trace.vector_ops.total() as f64 / rmx.iterations as f64;
        assert!(
            per_iter_mx > per_iter_64 + 1.5,
            "demotion sweeps must show up in the trace: {per_iter_mx} vs {per_iter_64}"
        );
        // reductions per iteration unchanged: still two-allreduce CG
        assert_eq!(r64.trace.reductions, 1 + 2 * r64.iterations);
        assert_eq!(rmx.trace.reductions, 1 + 2 * rmx.iterations);
    }

    #[test]
    fn precision_labels_parse_and_roundtrip() {
        for p in [Precision::F64, Precision::F32, Precision::Mixed] {
            assert_eq!(Precision::parse(p.label()).unwrap(), p);
        }
        assert_eq!(Precision::parse("DOUBLE").unwrap(), Precision::F64);
        assert_eq!(Precision::parse("single").unwrap(), Precision::F32);
        assert!(Precision::parse("f16").is_err());
    }
}
