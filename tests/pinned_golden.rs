//! Pinned outcomes of every registered solver on one crooked-pipe
//! system.
//!
//! For each registry entry, under four settings (two preconditioners,
//! two matrix-powers depths, two iteration caps), the tables below
//! record the trace label, the iteration count, the bits of the initial
//! and final residuals, an FNV-1a hash of the solution's interior bits,
//! and the solve trace's iteration, kernel, reduction and halo totals.
//! Any change to a solver's arithmetic or to its communication protocol
//! moves at least one of these numbers, so a refactor that claims to be
//! behaviour preserving must leave the tables untouched.

use tealeaf::comms::{Communicator, HaloLayout, SerialComm};
use tealeaf::mesh::{
    crooked_pipe, timestep_scalings, Coefficients, Decomposition2D, Field2D, Mesh2D,
};
use tealeaf::solvers::{
    Assembly, DynTile, PreconKind, SolveContext, SolveOpts, SolveResult, SolveTrace, SolverParams,
    Tile, TileBounds, TileOperator, Workspace,
};

const N: usize = 20;
const DT: f64 = 0.04;

/// Diagonal preconditioning, matrix-powers depth 2.
const PINNED_DIAGONAL: &str = "
    jacobi Jacobi 79 405e1eb5b72073f7 3e7f57eca41a325b d912a4b0bec3cb83 [79, 0, 80, 158, 80, 0, 0, 80, 80]
    cg CG/jac_diag 28 404c61052877ad26 3e60139495bed449 f062024585d2e108 [28, 0, 29, 113, 29, 29, 0, 57, 29]
    cg_fused CG-fused 28 404c61052877ad26 3e60139495bed45d a50fd46ee03ca4ba [28, 0, 30, 141, 58, 29, 0, 29, 30]
    chebyshev Chebyshev 32 404c61052877ad26 3e63498d758d1221 06290074803e16e4 [32, 0, 34, 132, 15, 34, 0, 27, 34]
    ppcg PPCG-2 15 404c61052877ad26 3e20812fde4a7572 8ebe4d7063b4ad9e [15, 32, 49, 107, 17, 49, 32, 32, 33]
    richardson Richardson 62 404c61052877ad26 3e66045ab0793feb 601f25d3dec0ba92 [62, 0, 64, 151, 18, 64, 0, 30, 64]
    mixed_cg CG-mixed 28 404c61051c547cd4 3e601394bd432c48 5004c95e92a5ca4c [28, 0, 29, 171, 29, 29, 0, 57, 29]
    mixed_ppcg PPCG-2-mixed 15 404c61052877ad26 3e2081354a572222 b348315d7228f7f3 [15, 32, 49, 111, 17, 49, 32, 32, 33]
    mixed_chebyshev Chebyshev-mixed 15 404c61052877ad26 3debed77764068df d35835dc4ac5dc7d [15, 30, 47, 98, 16, 46, 30, 28, 47]
    mixed_richardson Richardson-mixed 17 404c61052877ad26 3e6604533cf9deda 04c5893ebe4a122e [17, 50, 69, 270, 18, 63, 0, 30, 69]
    cg_f32 CG-f32 49 404c6104ea65d555 3ed4de95e4670a5c 23dcf7d10e0660a3 [49, 0, 54, 203, 54, 54, 0, 103, 54]
    amg BoomerAMG 7 404bae2304c62e5c 3e2560a09072fdf7 fcf709209d8b6644 [7, 0, 8, 21, 8, 0, 0, 15, 8]
    auto auto[Chebyshev] 32 404c61052877ad26 3e63498d758d1221 06290074803e16e4 [32, 0, 34, 132, 15, 34, 0, 27, 34]
";

/// Block-Jacobi preconditioning, depth 1.
const PINNED_BLOCK: &str = "
    jacobi Jacobi 79 405e1eb5b72073f7 3e7f57eca41a325b d912a4b0bec3cb83 [79, 0, 80, 158, 80, 0, 0, 80, 80]
    cg CG/jac_block 22 404a9555eae0c458 3e6815516dbe472c df2c395ec3ae37c6 [22, 0, 23, 66, 23, 23, 0, 45, 23]
    cg_fused CG-fused 22 404a9555eae0c458 3e6815516dbe475d b9a8b7ef4812b74c [22, 0, 24, 88, 46, 23, 0, 23, 24]
    chebyshev Chebyshev 32 404a9555eae0c458 3decfe6b313ac915 a5b56b90f509409c [32, 0, 34, 98, 15, 34, 0, 27, 34]
    ppcg PPCG-1 14 404a9555eae0c458 3e2afc47c52af476 19b4547389afb1b6 [14, 24, 40, 76, 16, 40, 24, 30, 40]
    richardson Richardson 42 404a9555eae0c458 3e58de655f9df971 cdecba8aed86cd19 [42, 0, 44, 67, 16, 44, 0, 28, 44]
    mixed_cg CG-mixed 22 404a9555e1c2054d 3e681550e0446dc3 c023db4f91aaaa60 [22, 0, 23, 112, 23, 23, 0, 45, 23]
    mixed_ppcg PPCG-1-mixed 14 404a9555eae0c458 3e2afc72a0fdb444 6a92bb10886a77f1 [14, 24, 40, 79, 16, 40, 24, 30, 40]
    mixed_chebyshev Chebyshev-mixed 14 404a9555eae0c458 3dfb5fbc29aacd3e d10175857ea57bea [14, 20, 36, 67, 15, 35, 20, 27, 36]
    mixed_richardson Richardson-mixed 15 404a9555eae0c458 3e58de5317b3a227 a5112bd41e5dab08 [15, 30, 47, 139, 16, 43, 0, 28, 47]
    cg_f32 CG-f32 39 404a9555c05598f9 3ed4a5d8eaa4ac53 e58f91f95fbe05f7 [39, 0, 44, 119, 44, 44, 0, 83, 44]
    amg BoomerAMG 7 404bae2304c62e5c 3e2560a09072fdf7 fcf709209d8b6644 [7, 0, 8, 21, 8, 0, 0, 15, 8]
    auto auto[CG-fused] 22 404a9555eae0c458 3e6815516dbe475d b9a8b7ef4812b74c [22, 0, 24, 88, 46, 23, 0, 23, 24]
";

/// Diagonal preconditioning, depth 2, capped at 16 iterations: the
/// solvers that need more end at their iteration limit.
const PINNED_CAPPED: &str = "
    jacobi Jacobi 16 405e1eb5b72073f7 3fc6ab89666c38ba f6f4cae657c17a11 [16, 0, 17, 32, 17, 0, 0, 17, 17]
    cg CG/jac_diag 16 404c61052877ad26 3f2e1c1d845cb362 2c58aa67ea69d1e2 [16, 0, 17, 66, 17, 17, 0, 33, 17]
    cg_fused CG-fused 16 404c61052877ad26 3f2e1c1d845cb385 4250930a9d932e57 [16, 0, 18, 83, 34, 17, 0, 17, 18]
    chebyshev Chebyshev 16 404c61052877ad26 3f5161349e7a41d4 e35e7e33e4bc97eb [16, 0, 18, 68, 14, 18, 0, 26, 18]
    ppcg PPCG-2 15 404c61052877ad26 3e20812fde4a7572 8ebe4d7063b4ad9e [15, 32, 49, 107, 17, 49, 32, 32, 33]
    richardson Richardson 16 404c61052877ad26 3f5a5ce9b2a7190b 2f1dbeb23fb6d5aa [16, 0, 18, 59, 14, 18, 0, 26, 18]
    mixed_cg CG-mixed 16 404c61051c547cd4 3f2e1c1d450f47ff 0ea12fb610cca90d [16, 0, 17, 100, 17, 17, 0, 33, 17]
    mixed_ppcg PPCG-2-mixed 15 404c61052877ad26 3e2081354a572222 b348315d7228f7f3 [15, 32, 49, 111, 17, 49, 32, 32, 33]
    mixed_chebyshev Chebyshev-mixed 15 404c61052877ad26 3debed77764068df d35835dc4ac5dc7d [15, 30, 47, 98, 16, 46, 30, 28, 47]
    mixed_richardson Richardson-mixed 16 404c61052877ad26 3e97475c729e5fb0 0c606cd581607afb [16, 40, 58, 226, 17, 53, 0, 29, 58]
    cg_f32 CG-f32 16 404c6104ea65d555 3f2e1c1f2720a3ac 149cbcbafdcaf060 [16, 0, 17, 68, 17, 17, 0, 33, 17]
    amg BoomerAMG 7 404bae2304c62e5c 3e2560a09072fdf7 fcf709209d8b6644 [7, 0, 8, 21, 8, 0, 0, 15, 8]
    auto auto[Chebyshev-mixed] 15 404c61052877ad26 3debed77764068df d35835dc4ac5dc7d [15, 30, 47, 98, 16, 46, 30, 28, 47]
";

/// Capped at 8 iterations, inside the 12 eigenvalue presteps.
const PINNED_IN_PRESTEPS: &str = "
    jacobi Jacobi 8 405e1eb5b72073f7 3ff3416b80b84a29 5076022a62a9dae6 [8, 0, 9, 16, 9, 0, 0, 9, 9]
    cg CG/jac_diag 8 404c61052877ad26 3fb51a05d925dcc9 de4466c2b18b8358 [8, 0, 9, 34, 9, 9, 0, 17, 9]
    cg_fused CG-fused 8 404c61052877ad26 3fb51a05d925dcd3 7fe204929e08f77e [8, 0, 10, 43, 18, 9, 0, 9, 10]
    chebyshev Chebyshev 8 404c61052877ad26 3fc88edc15b882b2 de4466c2b18b8358 [8, 0, 10, 36, 10, 10, 0, 18, 10]
    ppcg PPCG-2 8 404c61052877ad26 3fb51a05d925dcc9 de4466c2b18b8358 [8, 8, 18, 47, 10, 18, 8, 18, 14]
    richardson Richardson 8 404c61052877ad26 3fc88edc15b882b2 de4466c2b18b8358 [8, 0, 10, 35, 10, 10, 0, 18, 10]
    mixed_cg CG-mixed 8 404c61051c547cd4 3fb51a05e9aa7492 fa6ea646239c7a1f [8, 0, 9, 52, 9, 9, 0, 17, 9]
    mixed_ppcg PPCG-2-mixed 8 404c61052877ad26 3fb51a05d925dcc9 de4466c2b18b8358 [8, 8, 18, 48, 10, 18, 8, 18, 14]
    mixed_chebyshev Chebyshev-mixed 8 404c61052877ad26 3fb51a05d925dcc9 de4466c2b18b8358 [8, 0, 10, 34, 9, 9, 0, 17, 10]
    mixed_richardson Richardson-mixed 8 404c61052877ad26 3fb51a05d925dcc9 de4466c2b18b8358 [8, 0, 10, 34, 9, 9, 0, 17, 10]
    cg_f32 CG-f32 8 404c6104ea65d555 3fb51a064d86b03f 3221ac4e05094dc3 [8, 0, 9, 36, 9, 9, 0, 17, 9]
    amg BoomerAMG 7 404bae2304c62e5c 3e2560a09072fdf7 fcf709209d8b6644 [7, 0, 8, 21, 8, 0, 0, 15, 8]
    auto auto[CG] 8 404c61052877ad26 3fb51a05d925dcc9 de4466c2b18b8358 [8, 0, 9, 34, 9, 9, 0, 17, 9]
";

fn fnv1a(u: &Field2D) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for k in 0..u.ny() as isize {
        for j in 0..u.nx() as isize {
            for byte in u.at(j, k).to_bits().to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

/// One table line: solver, trace label, iterations, residual bits,
/// solution hash, then the trace's outer/inner iterations and its
/// spmv, vector, dot, precon, fused, reduction and halo-exchange totals.
fn pin_line(name: &str, r: &SolveResult, u: &Field2D) -> String {
    let t = &r.trace;
    let counts = [
        t.outer_iterations,
        t.inner_iterations,
        t.spmv.total(),
        t.vector_ops.total(),
        t.dot_kernels.total(),
        t.precon_ops.total(),
        t.fused_updates.total(),
        t.reductions,
        t.total_halo_exchanges(),
    ];
    format!(
        "{name} {} {} {:016x} {:016x} {:016x} {counts:?}",
        t.solver,
        r.iterations,
        r.initial_residual.to_bits(),
        r.final_residual.to_bits(),
        fnv1a(u)
    )
}

/// One registry solve on the `N`² crooked pipe, with fields and
/// coefficients as deep as the solver's halo needs.
fn solve(name: &str, params: &SolverParams, max_iters: u64) -> (SolveResult, Field2D) {
    let registry = tealeaf::app::solver_registry();
    let mut solver = registry.create(name, params).expect("registered");
    let halo = solver.halo_depth().max(1);
    let problem = crooked_pipe(N);
    let mesh = Mesh2D::serial(N, N, problem.extent);
    let mut density = Field2D::new(N, N, halo + 1);
    let mut energy = Field2D::new(N, N, halo + 1);
    problem.apply_states(&mesh, &mut density, &mut energy);
    let (rx, ry) = timestep_scalings(&mesh, DT);
    let coeffs = Coefficients::assemble(&mesh, &density, problem.coefficient, rx, ry, halo + 1);
    let op = TileOperator::new(coeffs, TileBounds::new(&mesh, halo));
    let mut b = Field2D::new(N, N, halo);
    for k in 0..N as isize {
        for j in 0..N as isize {
            b.set(j, k, density.at(j, k) * energy.at(j, k));
        }
    }
    let comm = SerialComm::new();
    let d = Decomposition2D::with_grid(N, N, 1, 1);
    let layout = HaloLayout::new(&d, 0);
    let tile: DynTile<'_> = Tile::new(&op, &layout, comm.as_dyn());
    let ctx = SolveContext::with_assembly(
        &tile,
        Assembly {
            density: &density,
            coefficient: problem.coefficient,
            rx,
            ry,
        },
    );
    let opts = SolveOpts {
        eps: 1e-9,
        max_iters,
    };
    let mut u = b.clone();
    let mut ws = Workspace::new(N, N, halo);
    let mut trace = SolveTrace::new(solver.label());
    solver.prepare(&ctx, &opts);
    let result = solver.solve(&ctx, &mut u, &b, &mut ws, &mut trace);
    (result, u)
}

fn check(pinned: &str, params: SolverParams, max_iters: u64) {
    let got: Vec<String> = tealeaf::app::solver_registry()
        .names()
        .into_iter()
        .map(|name| {
            let (r, u) = solve(name, &params, max_iters);
            pin_line(name, &r, &u)
        })
        .collect();
    let want: Vec<&str> = pinned
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .collect();
    assert!(
        got == want,
        "pinned outcomes moved; measured table:\n{}",
        got.join("\n")
    );
}

#[test]
fn every_solver_matches_its_pinned_outcome_diagonal_depth2() {
    check(PINNED_DIAGONAL, diagonal_depth2(), 400);
}

#[test]
fn every_solver_matches_its_pinned_outcome_block_jacobi() {
    check(
        PINNED_BLOCK,
        SolverParams {
            precon: PreconKind::BlockJacobi,
            halo_depth: 1,
            inner_steps: 8,
            presteps: 12,
            ..SolverParams::default()
        },
        400,
    );
}

#[test]
fn every_solver_matches_its_pinned_outcome_at_the_iteration_cap() {
    check(PINNED_CAPPED, diagonal_depth2(), 16);
}

#[test]
fn every_solver_matches_its_pinned_outcome_inside_the_presteps() {
    check(PINNED_IN_PRESTEPS, diagonal_depth2(), 8);
}

fn diagonal_depth2() -> SolverParams {
    SolverParams {
        precon: PreconKind::Diagonal,
        halo_depth: 2,
        inner_steps: 8,
        presteps: 12,
        ..SolverParams::default()
    }
}
