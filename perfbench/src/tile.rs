//! One rank's tile of a deck, built the way `tea_app::run_rank` builds it:
//! state fields and coefficients one ghost layer deeper than the
//! solver's halo, the operator over the rank's sweep bounds.

use std::time::Instant;

use crate::spans::{maybe_span, Tracer};
use tea_app::{solver_registry, Deck};
use tea_comms::HaloLayout;
use tea_core::{SessionSpec, SolveSession, TileBounds, TileOperator};
use tea_mesh::{timestep_scalings, Coefficients, Decomposition2D, Field2D, Mesh2D};

/// The decomposition `run_serial` / `run_threaded_ranks` use for `ranks` ranks.
pub fn decomposition(deck: &Deck, ranks: usize) -> Decomposition2D {
    let (nx, ny) = (deck.problem.x_cells, deck.problem.y_cells);
    if ranks == 1 {
        Decomposition2D::with_grid(nx, ny, 1, 1)
    } else {
        Decomposition2D::new(nx, ny, ranks)
    }
}

/// The halo depth fields carry for the deck's solver, as
/// `run_serial_session_with` computes it.
pub fn solver_halo(deck: &Deck) -> usize {
    let params = deck.control.solver_params();
    solver_registry()
        .create(&deck.control.solver, &params)
        .expect("benchmark decks name registered solvers")
        .halo_depth()
        .max(params.halo_depth)
        .max(1)
}

/// Seconds spent in the public set-up calls before a first solve.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    /// Everything below, end to end.
    pub total: f64,
    /// `Coefficients::assemble` and `TileOperator::new`.
    pub assemble: f64,
    /// The solver's `prepare`.
    pub prepare: f64,
}

pub struct RankTile<'d> {
    pub deck: &'d Deck,
    pub mesh: Mesh2D,
    pub layout: HaloLayout,
    pub density: Field2D,
    pub energy: Field2D,
    pub rx: f64,
    pub ry: f64,
    pub halo: usize,
}

impl<'d> RankTile<'d> {
    pub fn new(deck: &'d Deck, decomp: &Decomposition2D, rank: usize, halo: usize) -> Self {
        let mesh = Mesh2D::new(decomp, rank, deck.problem.extent);
        let (nx, ny) = (mesh.nx(), mesh.ny());
        let mut density = Field2D::new(nx, ny, halo + 1);
        let mut energy = Field2D::new(nx, ny, halo + 1);
        deck.problem.apply_states(&mesh, &mut density, &mut energy);
        let (rx, ry) = timestep_scalings(&mesh, deck.control.dt);
        RankTile {
            deck,
            layout: HaloLayout::new(decomp, rank),
            mesh,
            density,
            energy,
            rx,
            ry,
            halo,
        }
    }

    pub fn cells(&self) -> usize {
        self.mesh.nx() * self.mesh.ny()
    }

    pub fn assemble(&self) -> Coefficients {
        Coefficients::assemble(
            &self.mesh,
            &self.density,
            self.deck.problem.coefficient,
            self.rx,
            self.ry,
            self.halo + 1,
        )
    }

    pub fn operator(&self) -> TileOperator {
        TileOperator::new(self.assemble(), TileBounds::new(&self.mesh, self.halo))
    }

    /// The first step's right-hand side `b = ρ·e`.
    pub fn rhs(&self) -> Field2D {
        let (nx, ny) = (self.mesh.nx(), self.mesh.ny());
        let mut b = Field2D::new(nx, ny, self.halo);
        for k in 0..ny as isize {
            let d = self.density.row(k, 0, nx as isize);
            let e = self.energy.row(k, 0, nx as isize);
            for ((bv, dv), ev) in b.row_mut(k, 0, nx as isize).iter_mut().zip(d).zip(e) {
                *bv = dv * ev;
            }
        }
        b
    }

    /// Times a cold session set-up on this tile: operator assembly,
    /// `SolveSession::with_registry` (with the assembly recipe attached,
    /// as `run_serial_session_with` does) and `prepare`, each in a span when
    /// `tracer` is armed.
    pub fn session_setup(&self, tracer: Option<&Tracer>, parent: Option<u64>) -> SetupTimes {
        let control = &self.deck.control;
        let spec = SessionSpec {
            solver: control.solver.clone(),
            precision: None,
            opts: control.opts,
            params: control.solver_params(),
        };
        let start = Instant::now();
        let (assemble, prepare) = maybe_span(tracer, "session.build", parent, |build| {
            let t = Instant::now();
            let op = maybe_span(tracer, "mesh.assemble", build, |_| self.operator());
            let assemble = t.elapsed().as_secs_f64();
            let mut session = maybe_span(tracer, "session.create", build, |_| {
                SolveSession::with_registry(op, &spec, solver_registry())
                    .expect("benchmark decks name registered solvers")
                    .with_assembly(
                        self.density.clone(),
                        self.deck.problem.coefficient,
                        self.rx,
                        self.ry,
                    )
            });
            let t = Instant::now();
            maybe_span(tracer, "solver.prepare", build, |_| {
                session.prepare();
            });
            (assemble, t.elapsed().as_secs_f64())
        });
        SetupTimes {
            total: start.elapsed().as_secs_f64(),
            assemble,
            prepare,
        }
    }
}
