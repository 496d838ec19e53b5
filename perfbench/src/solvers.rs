//! The three solver workloads: one crooked-pipe deck run start to
//! finish through tea-app's public entry points, repeated for the run's
//! measuring time.

use std::time::Instant;

use crate::layers::{self, KernelTimes};
use crate::report::{median, net_walls, repeat, time_median, Report, Tally};
use crate::spans::{maybe_span, Tracer};
use crate::tile::{decomposition, solver_halo, RankTile, SetupTimes};
use tea_app::{
    crooked_pipe_deck, parse_deck, render_deck, run_rank, run_serial, Deck, FieldSummary,
    RankOutput,
};
use tea_comms::run_threaded;
use tea_core::{set_num_threads, PreconKind, SolveTrace};
use tea_mesh::Field2D;
use tea_perfmodel::solver_elem_bytes;

/// Convergence tolerance of every solver workload.
pub const EPS: f64 = 1e-10;

/// A recomputed true residual `‖b − Au‖` may exceed the requested
/// `eps · ‖b − Ab‖` by this factor (recurrence drift and, for
/// preconditioned solves, the gap between the solver's `√(r·z)` norm and
/// the 2-norm) before the answer counts as wrong.
pub const RESIDUAL_SLACK: f64 = 10.0;

/// Relative tolerance of a decomposed run's field summary against the
/// serial reference, as in tea-app's serial-vs-ranks tests.
pub const SUMMARY_RTOL: f64 = 1e-8;

/// A decomposed run's true residual may exceed the one a serial run of
/// the same deck reaches by this factor: room for rounding to move the
/// last iterate, none for a wrong field.
pub const SERIAL_RESIDUAL_SLACK: f64 = 2.0;

/// Set-up repetitions of the traced run.
const SETUP_REPS: usize = 15;

#[derive(Debug, Clone, Copy)]
pub struct SolverWorkload {
    pub name: &'static str,
    pub cells: usize,
    pub solver: &'static str,
    pub precon: PreconKind,
    pub ranks: usize,
    pub threads: usize,
    pub depth: usize,
    pub inner: usize,
}

pub const CG_SERIAL: SolverWorkload = SolverWorkload {
    name: "cg-serial",
    cells: 512,
    solver: "cg",
    precon: PreconKind::None,
    ranks: 1,
    threads: 1,
    depth: 1,
    inner: 16,
};

pub const MIXED_THREADS: SolverWorkload = SolverWorkload {
    name: "mixed-threads",
    solver: "mixed_cg",
    precon: PreconKind::Diagonal,
    threads: 2,
    ..CG_SERIAL
};

pub const PPCG_RANKS: SolverWorkload = SolverWorkload {
    name: "ppcg-ranks",
    cells: 1024,
    solver: "ppcg",
    ranks: 2,
    depth: 4,
    ..CG_SERIAL
};

/// What a decomposed run is checked against: a serial run of the same
/// deck.
#[derive(Debug, Clone, Copy)]
pub struct SerialReference {
    /// The serial run's final field summary. It shows that the ranks
    /// cover the mesh with the right states and conserve energy; it
    /// cannot tell a solved field from an unsolved one (every iterate
    /// keeps `Σu`), which is the residual's job.
    pub summary: FieldSummary,
    /// The serial answer's true residual `‖b − Au‖` over
    /// `eps · ‖b − Ab‖`.
    pub residual_ratio: f64,
}

/// [`serial_reference`] of the `ppcg-ranks` deck at 1024², recorded
/// once. PPCG stops on its recurrence residual, which at depth 4 and 16
/// inner steps understates the true one about fiftyfold, so the
/// decomposed answer is held to the serial answer's true residual
/// rather than to `eps`.
pub const PPCG_RANKS_REFERENCE: SerialReference = SerialReference {
    summary: FieldSummary {
        volume: 100.0,
        mass: 8302.775812149048,
        internal_energy: 57.07972621917546,
        temperature: 57.07972621917546,
    },
    residual_ratio: 50.47760789863273,
};

impl SolverWorkload {
    /// The workload's deck as text: one time step, so the solve the
    /// answer check recomputes is the whole run.
    pub fn deck_text(&self, cells: usize) -> String {
        let mut deck = crooked_pipe_deck(cells, self.solver);
        deck.control.end_step = 1;
        deck.control.summary_frequency = 0;
        deck.control.opts.eps = EPS;
        deck.control.precon = self.precon;
        deck.control.ppcg_halo_depth = self.depth;
        deck.control.ppcg_inner_steps = self.inner;
        deck.control.threads = Some(self.threads);
        render_deck(&deck)
    }

    /// The recorded serial run a decomposed run is checked against;
    /// `None` on one rank.
    pub fn reference(&self) -> Option<SerialReference> {
        (self.ranks > 1).then_some(PPCG_RANKS_REFERENCE)
    }
}

/// One full run of the deck through tea-app's public entry points.
/// On several ranks this is `run_threaded_ranks` spelled out, so the
/// traced run can put a span around each rank.
fn run_deck(
    w: &SolverWorkload,
    deck: &Deck,
    tracer: Option<&Tracer>,
    parent: Option<u64>,
) -> Vec<RankOutput> {
    if w.ranks == 1 {
        return vec![run_serial(deck).expect("workload decks are valid")];
    }
    let decomp = decomposition(deck, w.ranks);
    run_threaded(w.ranks, |comm| {
        maybe_span(tracer, "app.run_rank", parent, |_| {
            run_rank(deck, &decomp, comm).expect("workload decks are valid")
        })
    })
}

/// Checks one run: every step converged on every rank, and the true
/// residual of the field gathered on rank 0, recomputed in f64 with the
/// whole mesh's operator, is within [`RESIDUAL_SLACK`] of the requested
/// `eps · ‖b − Ab‖` on one rank; on several ranks it is within
/// [`SERIAL_RESIDUAL_SLACK`] of the serial reference's, and the final
/// field summary matches the reference's.
pub struct Checker {
    reference: Option<SerialReference>,
    op: tea_core::TileOperator,
    b: Field2D,
    r0: f64,
}

impl Checker {
    pub fn new(deck: &Deck, reference: Option<SerialReference>) -> Self {
        let decomp = decomposition(deck, 1);
        let tile = RankTile::new(deck, &decomp, 0, 1);
        let op = tile.operator();
        let b = tile.rhs();
        let r0 = true_residual(&op, &b, &b);
        Checker {
            reference,
            op,
            b,
            r0,
        }
    }

    /// The gathered field's true residual over `eps · ‖b − Ab‖`
    /// (infinite without a gathered field).
    pub fn residual_ratio(&self, outs: &[RankOutput]) -> f64 {
        outs[0].final_u.as_ref().map_or(f64::INFINITY, |u| {
            true_residual(&self.op, &self.b, u) / (EPS * self.r0)
        })
    }

    pub fn passes(&self, outs: &[RankOutput]) -> bool {
        let converged = outs.iter().all(|o| o.steps.iter().all(|s| s.converged));
        let ratio = self.residual_ratio(outs);
        let answer = match self.reference {
            None => ratio <= RESIDUAL_SLACK,
            Some(r) => {
                ratio <= SERIAL_RESIDUAL_SLACK * r.residual_ratio
                    && summary_matches(&outs[0].final_summary, &r.summary)
            }
        };
        converged && answer
    }
}

/// Runs the deck once and checks the answer with each way of corrupting
/// it the checks must catch: the unsolved right-hand side in place of
/// the field, one cell off by a part in a million, a step marked
/// unconverged, and (with a serial reference) a summary off by a part
/// in a million. Every one should fail, so the returned tally's
/// `fail_ratio` should be 1.
pub fn check_corrupted(
    w: &SolverWorkload,
    cells: usize,
    reference: Option<SerialReference>,
) -> Tally {
    set_num_threads(w.threads);
    let deck = parse_deck(&w.deck_text(cells)).expect("generated decks parse");
    let checker = Checker::new(&deck, reference);
    let mut tally = Tally::default();
    let mut outs = run_deck(w, &deck, None, None);
    if !checker.passes(&outs) {
        // an honest answer that fails is not a test of the corruptions
        return tally;
    }
    let u = outs[0].final_u.clone().expect("rank 0 gathers the field");
    let mut unsolved = u.clone();
    unsolved.copy_interior_from(&checker.b);
    let mut one_cell = u.clone();
    let (j, k) = ((u.nx() / 3) as isize, (u.ny() / 2) as isize);
    one_cell.set(j, k, u.at(j, k) * (1.0 + 1e-6));
    for bad in [unsolved, one_cell] {
        outs[0].final_u = Some(bad);
        tally.record(checker.passes(&outs));
    }
    outs[0].final_u = Some(u);
    outs[0].steps[0].converged = false;
    tally.record(checker.passes(&outs));
    outs[0].steps[0].converged = true;
    if reference.is_some() {
        outs[0].final_summary.mass *= 1.0 + 1e-6;
        tally.record(checker.passes(&outs));
    }
    tally
}

/// `‖b − A u‖₂` over the interior, recomputed in f64 through the public
/// `TileOperator::residual`; `u` may carry any halo (ghosts are zeroed,
/// and boundary faces carry zero coefficients).
fn true_residual(op: &tea_core::TileOperator, b: &Field2D, u: &Field2D) -> f64 {
    let mut uh = Field2D::new(b.nx(), b.ny(), b.halo());
    uh.copy_interior_from(u);
    let mut r = Field2D::new(b.nx(), b.ny(), b.halo());
    op.residual(&uh, b, &mut r, 0, &mut SolveTrace::new("check"));
    r.interior_dot(&r).sqrt()
}

fn summary_matches(got: &FieldSummary, want: &FieldSummary) -> bool {
    let close = |a: f64, b: f64| (a - b).abs() <= SUMMARY_RTOL * b.abs().max(1e-10);
    close(got.volume, want.volume)
        && close(got.mass, want.mass)
        && close(got.internal_energy, want.internal_energy)
        && close(got.temperature, want.temperature)
}

/// Wall time of a run's solves: per rank, the summed step walls.
fn solve_walls(outs: &[RankOutput]) -> Vec<f64> {
    outs.iter()
        .map(|o| o.steps.iter().map(|s| s.wall).sum())
        .collect()
}

/// Times the public set-up calls made before the first solve on rank
/// 0's tile.
fn setup_once(
    w: &SolverWorkload,
    deck: &Deck,
    tracer: Option<&Tracer>,
    parent: Option<u64>,
) -> SetupTimes {
    let tile = RankTile::new(deck, &decomposition(deck, w.ranks), 0, solver_halo(deck));
    tile.session_setup(tracer, parent)
}

/// The untraced run: set-up timing, then full runs of the deck until
/// `seconds` is spent, timed net of host steal. One rank's thread, or
/// ranks and kernel threads that meet at every exchange and sweep, all
/// stall while any vCPU is stolen from, so the whole steal counts.
pub fn measure(
    w: &SolverWorkload,
    cells: usize,
    seconds: f64,
    reference: Option<SerialReference>,
) -> Report {
    set_num_threads(w.threads);
    let deck = parse_deck(&w.deck_text(cells)).expect("generated decks parse");
    let checker = Checker::new(&deck, reference);

    let mut report = Report::default();
    let (reps, setups) = repeat(
        seconds,
        || setup_once(w, &deck, None, None).total,
        || run_deck(w, &deck, None, None),
        |outs| {
            let solve = solve_walls(&outs).into_iter().fold(0.0, f64::max);
            (checker.passes(&outs), solve, checker.residual_ratio(&outs))
        },
    );
    for r in &reps {
        report.tally.record(r.out.0);
    }
    eprintln!(
        "perfbench: worst true residual {:.4} × eps·‖b − Ab‖",
        reps.iter().map(|r| r.out.2).fold(0.0, f64::max)
    );
    let net = net_walls(&reps, 1.0);
    let tts = median(&net);
    report.set("tts_s", tts);
    report.set("setup_s", median(&setups));
    // a job is one full run of the deck
    report.set("jobs_per_s", 1.0 / tts);
    report.set(
        "job_latency_s.p50",
        median(
            &reps
                .iter()
                .zip(&net)
                .map(|(r, n)| r.out.1 * n / r.wall)
                .collect::<Vec<_>>(),
        ),
    );
    report.set("peak_rss_mb", crate::machine::peak_rss_mb());
    report
}

/// The traced run: a warm-up, one untraced and one traced full run, the set-up
/// calls and every kernel the ledger prices, each in its own span.
pub fn trace(
    w: &SolverWorkload,
    cells: usize,
    seed: u64,
    reference: Option<SerialReference>,
    tracer: &Tracer,
) -> Report {
    set_num_threads(w.threads);
    let text = w.deck_text(cells);
    let deck = parse_deck(&text).expect("generated decks parse");
    let halo = solver_halo(&deck);
    let checker = Checker::new(&deck, reference);
    let mut tally = Tally::default();

    // a warm-up run, so that the untraced and traced runs compared by
    // trace.overhead_ratio both start warm
    tally.record(checker.passes(&run_deck(w, &deck, None, None)));
    let t = Instant::now();
    let plain = run_deck(w, &deck, None, None);
    let plain_s = t.elapsed().as_secs_f64();
    tally.record(checker.passes(&plain));

    tracer.span("perfbench.traced", None, |root| {
        let t = Instant::now();
        let outs = tracer.span("app.run", Some(root), |run| {
            run_deck(w, &deck, Some(tracer), Some(run))
        });
        let traced_s = t.elapsed().as_secs_f64();
        tally.record(checker.passes(&outs));

        let setups: Vec<SetupTimes> = (0..SETUP_REPS)
            .map(|_| setup_once(w, &deck, Some(tracer), Some(root)))
            .collect();
        let parse_s = tracer.span("deck.parse", Some(root), |_| {
            time_median(SETUP_REPS, || {
                std::hint::black_box(parse_deck(&text).expect("generated decks parse"));
            })
        });
        let trace = &outs[0].trace;
        let keys: Vec<_> = trace.halo_exchanges.keys().copied().collect();
        let precon_f32 = w.solver.starts_with("mixed_");
        let kt = tracer.span("layers.kernels", Some(root), |_| {
            layers::kernel_times(&deck, w.ranks, halo, precon_f32, &keys, seed)
        });
        let region = tracer.span("runtime.region", Some(root), |_| {
            layers::region_us(w.threads)
        });
        let stream = tracer.span("machine.stream", Some(root), |_| {
            crate::machine::stream_gbs(w.ranks * w.threads)
        });

        let mut r = Report {
            tally,
            ..Report::default()
        };
        layers::kernel_metrics(&mut r, &kt, stream / w.ranks as f64);
        ledger_metrics(&mut r, w, &outs, &kt, stream);
        r.set("runtime.region_us", region);
        r.set("trace.overhead_ratio", traced_s / plain_s);
        r.set("machine.stream_gbs", stream);
        let med = |f: fn(&SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
        r.set("mesh.assemble_s", med(|s| s.assemble));
        r.set("solver.prepare_s", med(|s| s.prepare));
        r.set("session.build_s", med(|s| s.total));
        r.set("deck.parse_s", parse_s);
        for name in [
            "session.hits",
            "session.misses",
            "session.hit_ratio",
            "serve.busy_ratio",
            "serve.job_s.p99",
            "serve.retries",
            "tune.overhead_ratio",
            "tune.reuse_unconverged",
            "amg.setup_s",
        ] {
            r.set(name, 0.0);
        }
        for solver in crate::serve::SOLVERS {
            r.set(crate::serve::job_metric(solver), 0.0);
        }
        r.set("fail_ratio", r.tally.fail_ratio());
        r
    })
}

/// Solver counts, the phase ledger and the roofline gap of one traced run.
fn ledger_metrics(
    r: &mut Report,
    w: &SolverWorkload,
    outs: &[RankOutput],
    kt: &KernelTimes,
    stream_gbs: f64,
) {
    let trace = &outs[0].trace;
    let walls = solve_walls(outs);
    let solve_s = walls.iter().copied().fold(0.0, f64::max);
    let outer = trace.outer_iterations.max(1) as f64;
    let iter_s = solve_s / outer;
    let elem = solver_elem_bytes(w.solver);
    let iter_bytes = w.ranks as f64 * layers::trace_bytes(trace, &kt.bounds, elem) / outer;
    r.set("solver.iterations", trace.outer_iterations as f64);
    r.set("solver.inner_iterations", trace.inner_iterations as f64);
    r.set("solver.iter_s", iter_s);
    r.set(
        "solver.unattributed_s",
        solve_s - layers::attributed_s(trace, kt),
    );
    r.set("ops.sweeps", trace.spmv.total() as f64);
    r.set(
        "comms.halo_bytes",
        outs.iter().map(|o| o.comm.bytes_sent() as f64).sum(),
    );
    r.set("comms.reductions", outs[0].comm.reductions as f64);
    r.set(
        "comms.rank_wait_s",
        solve_s - walls.iter().copied().fold(f64::INFINITY, f64::min),
    );
    r.set("perfmodel.iter_bytes", iter_bytes);
    r.set("perfmodel.gap", iter_s / (iter_bytes / (stream_gbs * 1e9)));
}

/// A serial run of the workload's deck: the decomposed workload's
/// reference.
pub fn serial_reference(w: &SolverWorkload, cells: usize) -> SerialReference {
    let deck = parse_deck(&w.deck_text(cells)).expect("generated decks parse");
    let out = run_serial(&deck).expect("workload decks are valid");
    SerialReference {
        summary: out.final_summary,
        residual_ratio: Checker::new(&deck, None).residual_ratio(&[out]),
    }
}
