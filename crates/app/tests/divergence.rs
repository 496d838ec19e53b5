//! One divergence convention for every registered solver: a NaN planted
//! mid-solve by the fault layer's [`NanPoison`] probe ends the solve as
//! `Diverged` with a NaN `final_residual`, whether the fault lands in an
//! eigenvalue prestep or in the main iteration.

use tea_comms::{Communicator, HaloLayout, SerialComm};
use tea_core::{
    crooked_pipe_system, SolveContext, SolveControls, SolveOpts, SolveTrace, SolverParams,
    SolverRegistry, Tile, Workspace,
};
use tea_fault::NanPoison;
use tea_mesh::Decomposition2D;

#[test]
fn nan_poison_reads_as_divergence_with_a_nan_residual_everywhere() {
    let n = 20;
    let probe = NanPoison { iteration: 3 };
    let registry = SolverRegistry::builtin();
    // 12 presteps put iteration 3 inside the CG prelude of the
    // eigenvalue-driven solvers; 2 put it in their main loop
    for presteps in [12, 2] {
        let params = SolverParams {
            presteps,
            ..SolverParams::default()
        };
        for name in registry.names() {
            let mut solver = registry.create(name, &params).expect("registered");
            let halo = solver.halo_depth().max(1);
            let (op, b) = crooked_pipe_system(n, 0.04, halo);
            let comm = SerialComm::new();
            let d = Decomposition2D::with_grid(n, n, 1, 1);
            let layout = HaloLayout::new(&d, 0);
            let controls = SolveControls {
                stop: None,
                probe: Some(&probe),
            };
            let tile = Tile::with_controls(&op, &layout, comm.as_dyn(), controls);
            let ctx = SolveContext::new(&tile);
            let mut u = b.clone();
            let mut ws = Workspace::new(n, n, halo);
            let mut trace = SolveTrace::new(solver.label());
            solver.prepare(&ctx, &SolveOpts::default());
            let r = solver.solve(&ctx, &mut u, &b, &mut ws, &mut trace);
            assert!(
                r.status.is_diverged(),
                "{name} (presteps {presteps}): {:?}",
                r.status
            );
            assert!(
                r.final_residual.is_nan(),
                "{name} (presteps {presteps}): final residual {}",
                r.final_residual
            );
        }
    }
}
