//! The `serve-mix` workload: a seeded queue of small crooked-pipe decks
//! over every solver family, submitted at once and drained by
//! `serve_decks` (a closed loop with the whole queue in flight).

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use crate::layers;
use crate::report::{mean, median, net_walls, percentile, repeat, time_median, Report, Tally};
use crate::spans::Tracer;
use crate::tile::{decomposition, solver_halo, RankTile};
use crate::Rng;
use tea_amg::{MgHierarchy, MgOpts};
use tea_app::{crooked_pipe_deck, parse_deck, render_deck, serve_decks, DeckJob, DeckOutcome};
use tea_core::{set_num_threads, TileBounds};
use tea_perfmodel::solver_elem_bytes;
use tea_serve::{JobOutcome, ServeOptions, ServeReport};

/// The solver families in the queue, each with its job-time metric.
pub const SOLVERS: [&str; 7] = [
    "cg",
    "cg_fused",
    "chebyshev",
    "ppcg",
    "mixed_cg",
    "amg",
    "auto",
];

pub fn job_metric(solver: &str) -> &'static str {
    match solver {
        "cg" => "serve.job_s.cg",
        "cg_fused" => "serve.job_s.cg_fused",
        "chebyshev" => "serve.job_s.chebyshev",
        "ppcg" => "serve.job_s.ppcg",
        "mixed_cg" => "serve.job_s.mixed_cg",
        "amg" => "serve.job_s.amg",
        _ => "serve.job_s.auto",
    }
}

/// Mesh sizes of the queue, one geometry each.
pub const RUNGS: [usize; 5] = [32, 48, 64, 80, 96];
/// Jobs per setup: about one job in this many brings a new setup key.
pub const REPEATS: usize = 10;
const WORKERS: usize = 2;
const PARSE_REPS: usize = 25;

/// A queue's shape: the size rungs and how often each setup repeats.
#[derive(Debug, Clone, Copy)]
pub struct QueueShape<'a> {
    pub rungs: &'a [usize],
    pub repeats: usize,
}

pub const FULL: QueueShape<'static> = QueueShape {
    rungs: &RUNGS,
    repeats: REPEATS,
};

/// One queued deck: its text (all the program receives), solver and
/// geometry index (setups with equal geometry, i.e. mesh size and eps,
/// differ only in solver).
#[derive(Debug, Clone)]
pub struct QueuedDeck {
    pub label: String,
    pub solver: &'static str,
    pub geometry: usize,
    pub cells: usize,
    pub text: String,
}

/// Draws the queue from `seed`: one eps per mesh size, log-uniform in
/// [5e-9, 2e-8]; every solver on every size (35 setups), each setup
/// queued `repeats` times, in a seeded order. Each deck runs one step
/// (see [`auto_reuse_probe`] for why not two). Sizes stay fixed so that
/// the queue's total work, and with it the drain time, barely depends
/// on the seed.
pub fn queue(seed: u64, shape: QueueShape<'_>) -> Vec<QueuedDeck> {
    let mut rng = Rng::new(seed);
    let mut jobs = Vec::new();
    for (geometry, &cells) in shape.rungs.iter().enumerate() {
        let eps = 1e-8 * 10f64.powf(0.6 * rng.unit() - 0.3);
        for solver in SOLVERS {
            let mut deck = crooked_pipe_deck(cells, solver);
            deck.control.end_step = 1;
            deck.control.summary_frequency = 0;
            deck.control.opts.eps = eps;
            deck.control.ppcg_halo_depth = if solver == "ppcg" { 4 } else { 1 };
            deck.control.tune_seed = seed;
            let text = render_deck(&deck);
            for rep in 0..shape.repeats {
                jobs.push(QueuedDeck {
                    label: format!("{solver}-{cells}-{rep}"),
                    solver,
                    geometry,
                    cells,
                    text: text.clone(),
                });
            }
        }
    }
    for i in (1..jobs.len()).rev() {
        jobs.swap(i, rng.below(i as u64 + 1) as usize);
    }
    jobs
}

fn parse_all(queue: &[QueuedDeck]) -> Vec<DeckJob> {
    queue
        .iter()
        .map(|q| DeckJob {
            label: q.label.clone(),
            deck: parse_deck(&q.text).expect("generated decks parse"),
        })
        .collect()
}

fn options() -> ServeOptions {
    ServeOptions {
        workers: WORKERS,
        threads_per_job: Some(1),
        cache: true,
        ..ServeOptions::default()
    }
}

/// A job passes when it returned `Ok` with every step converged.
fn job_ok(o: &JobOutcome<DeckOutcome>) -> bool {
    o.result
        .as_ref()
        .is_ok_and(|d| d.output.steps.iter().all(|s| s.converged))
}

/// Drains the queue once and checks one passing job again with its first
/// step marked unconverged; the returned tally should read one failure.
pub fn check_corrupted(seed: u64, shape: QueueShape<'_>) -> Tally {
    set_num_threads(1);
    let (_, mut served) = drain(&parse_all(&queue(seed, shape)));
    let mut tally = Tally::default();
    if let Some(o) = served.outcomes.iter_mut().find(|o| job_ok(o)) {
        if let Ok(d) = o.result.as_mut() {
            d.output.steps[0].converged = false;
        }
        tally.record(job_ok(o));
    }
    tally
}

/// Drains the queue once: (drain wall seconds, report).
fn drain(jobs: &[DeckJob]) -> (f64, ServeReport<DeckOutcome>) {
    let t = Instant::now();
    let report = serve_decks(jobs.to_vec(), &options());
    (t.elapsed().as_secs_f64(), report)
}

/// The untraced run: deck-parse set-up timing, then drains of the whole
/// queue until `seconds` is spent, timed net of host steal. The workers
/// share the queue, so while one is stolen from the other keeps
/// draining: a drain stalls for a `1/WORKERS` share of the steal. Each
/// job's latency is scaled by its drain's net-to-raw ratio.
pub fn measure(seed: u64, shape: QueueShape<'_>, seconds: f64) -> Report {
    let queue = queue(seed, shape);
    let jobs = parse_all(&queue);

    let mut report = Report::default();
    // per drain: each job's pass/fail and latency
    let (reps, setups) = repeat(
        seconds,
        || {
            let t = Instant::now();
            std::hint::black_box(parse_all(&queue));
            t.elapsed().as_secs_f64()
        },
        || serve_decks(jobs.clone(), &options()),
        |served| -> Vec<(bool, f64)> {
            served
                .outcomes
                .iter()
                .map(|o| (job_ok(o), o.wall_s))
                .collect()
        },
    );
    for &(ok, _) in reps.iter().flat_map(|r| &r.out) {
        report.tally.record(ok);
    }
    let net = net_walls(&reps, 1.0 / WORKERS as f64);
    let rates: Vec<f64> = reps
        .iter()
        .zip(&net)
        .map(|(r, n)| r.out.iter().filter(|(ok, _)| *ok).count() as f64 / n)
        .collect();
    let latencies: Vec<f64> = reps
        .iter()
        .zip(&net)
        .flat_map(|(r, n)| r.out.iter().map(move |&(_, latency)| latency * n / r.wall))
        .collect();
    report.set("tts_s", median(&net));
    report.set("setup_s", median(&setups));
    report.set("jobs_per_s", median(&rates));
    report.set("job_latency_s.p50", median(&latencies));
    report.set("peak_rss_mb", crate::machine::peak_rss_mb());
    report
}

/// The traced run: a warm-up, one untraced and one traced drain, then the layers
/// behind a job (deck parse, assembly, session build, AMG set-up and
/// the kernels at a mid-queue tile) each in its own span.
pub fn trace(seed: u64, shape: QueueShape<'_>, tracer: &Tracer) -> Report {
    set_num_threads(1);
    let queue = queue(seed, shape);
    let jobs = parse_all(&queue);
    let mut tally = Tally::default();
    // a warm-up drain, so that the untraced and traced drains compared
    // by trace.overhead_ratio both start warm
    let (_, warm) = drain(&jobs);
    let (plain_s, plain) = drain(&jobs);
    for o in warm.outcomes.iter().chain(&plain.outcomes) {
        tally.record(job_ok(o));
    }

    tracer.span("perfbench.traced", None, |root| {
        let jobs = tracer.span("deck.parse_all", Some(root), |_| parse_all(&queue));
        let t = Instant::now();
        let traced = tracer.span("serve.serve_decks", Some(root), |_| {
            serve_decks(jobs, &options())
        });
        let traced_s = t.elapsed().as_secs_f64();
        traced.outcomes.iter().for_each(|o| tally.record(job_ok(o)));

        let mut r = Report {
            tally,
            ..Report::default()
        };
        queue_metrics(&mut r, &queue, &traced, traced_s);
        let probe = tracer.span("serve.auto_reuse_probe", Some(root), |_| {
            auto_reuse_probe(&queue)
        });
        r.set("tune.reuse_unconverged", probe);
        setup_metrics(&mut r, &queue, tracer, root);

        // kernels at the middle rung's tile, one kernel thread per job
        let mid = &queue
            .iter()
            .find(|q| q.geometry == shape.rungs.len() / 2 && q.solver == "cg")
            .expect("every geometry runs cg");
        let deck = parse_deck(&mid.text).expect("generated decks parse");
        let keys: BTreeSet<_> = traced
            .outcomes
            .iter()
            .filter(|o| queue[o.job].solver == "cg")
            .filter_map(|o| o.result.as_ref().ok())
            .flat_map(|d| d.output.trace.halo_exchanges.keys().copied())
            .collect();
        let kt = tracer.span("layers.kernels", Some(root), |_| {
            layers::kernel_times(
                &deck,
                1,
                1,
                false,
                &keys.into_iter().collect::<Vec<_>>(),
                seed,
            )
        });
        let region = tracer.span("runtime.region", Some(root), |_| layers::region_us(1));
        let stream = tracer.span("machine.stream", Some(root), |_| {
            crate::machine::stream_gbs(WORKERS)
        });
        layers::kernel_metrics(&mut r, &kt, stream / WORKERS as f64);
        ledger_metrics(&mut r, &queue, &traced, stream);
        r.set("runtime.region_us", region);
        r.set("machine.stream_gbs", stream);
        r.set("trace.overhead_ratio", traced_s / plain_s);
        r.set("comms.rank_wait_s", 0.0);
        r.set("fail_ratio", r.tally.fail_ratio());
        r
    })
}

/// Queue, cache and tuning metrics of one drain.
fn queue_metrics(
    r: &mut Report,
    queue: &[QueuedDeck],
    served: &ServeReport<DeckOutcome>,
    wall: f64,
) {
    let times: Vec<f64> = served.outcomes.iter().map(|o| o.wall_s).collect();
    r.set(
        "serve.busy_ratio",
        times.iter().sum::<f64>() / (WORKERS as f64 * wall),
    );
    r.set("serve.job_s.p99", percentile(&times, 0.99));
    r.set("serve.retries", served.stats.retries as f64);
    let cache = served.stats.cache;
    r.set("session.hits", cache.hits as f64);
    r.set("session.misses", cache.misses as f64);
    r.set(
        "session.hit_ratio",
        cache.hits as f64 / (cache.hits + cache.misses).max(1) as f64,
    );

    // mean job time per (solver, geometry) and per solver
    let mut by_setup: BTreeMap<(&str, usize), Vec<f64>> = BTreeMap::new();
    for o in &served.outcomes {
        let q = &queue[o.job];
        by_setup
            .entry((q.solver, q.geometry))
            .or_default()
            .push(o.wall_s);
    }
    for solver in SOLVERS {
        let all: Vec<f64> = by_setup
            .iter()
            .filter(|((s, _), _)| *s == solver)
            .flat_map(|(_, v)| v.iter().copied())
            .collect();
        r.set(job_metric(solver), mean(&all));
    }

    // auto's mean job time over that of the solver it adopted (its
    // TuneLog winner) on the same geometry, averaged over geometries
    // whose winner is in the queue
    let mut winners = BTreeMap::new();
    for o in &served.outcomes {
        let q = &queue[o.job];
        let tune = o.result.as_ref().ok().and_then(|d| d.tune.as_ref());
        if let (true, Some(winner)) = (q.solver == "auto", tune.and_then(|t| t.winner.as_ref())) {
            let family = winner.split('@').next().unwrap_or_default().to_string();
            winners.entry(q.geometry).or_insert(family);
        }
    }
    let ratios: Vec<f64> = winners
        .iter()
        .filter_map(|(&g, family)| {
            let adopted = by_setup.get(&(family.as_str(), g))?;
            Some(mean(&by_setup[&("auto", g)]) / mean(adopted))
        })
        .collect();
    r.set("tune.overhead_ratio", mean(&ratios));
}

/// Keeps the `auto` session-reuse defect in view while the queue's
/// decks run one step: on the session path an adopted race winner keeps
/// the race's trial iteration cap, so a later solve that needs more
/// iterations than the race did stops at `IterationLimit`. Serves each
/// size's `auto` deck of the queue once with two steps and counts the
/// jobs with an unconverged step. These jobs are a probe, not
/// operations of the workload, so they are not in the tally.
fn auto_reuse_probe(queue: &[QueuedDeck]) -> f64 {
    let mut seen = BTreeSet::new();
    let jobs: Vec<DeckJob> = queue
        .iter()
        .filter(|q| q.solver == "auto" && seen.insert(q.geometry))
        .map(|q| {
            let mut deck = parse_deck(&q.text).expect("generated decks parse");
            deck.control.end_step = 2;
            DeckJob {
                label: format!("auto-{}-2step", q.cells),
                deck,
            }
        })
        .collect();
    let (_, served) = drain(&jobs);
    served.outcomes.iter().filter(|o| !job_ok(o)).count() as f64
}

/// Set-up layers per distinct setup: deck parse, assembly, cold session
/// build plus `prepare`, and the AMG hierarchy at each queue size.
fn setup_metrics(r: &mut Report, queue: &[QueuedDeck], tracer: &Tracer, root: u64) {
    let mut seen = BTreeMap::new();
    for q in queue {
        seen.entry((q.geometry, q.solver)).or_insert(q);
    }
    let (mut parse, mut assemble, mut build, mut prepare, mut amg) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for q in seen.values() {
        parse.push(tracer.span("deck.parse", Some(root), |_| {
            time_median(PARSE_REPS, || {
                std::hint::black_box(parse_deck(&q.text).expect("generated decks parse"));
            })
        }));
        let deck = parse_deck(&q.text).expect("generated decks parse");
        let tile = RankTile::new(&deck, &decomposition(&deck, 1), 0, solver_halo(&deck));
        let times = tile.session_setup(Some(tracer), Some(root));
        assemble.push(times.assemble);
        build.push(times.total);
        prepare.push(times.prepare);
        if q.solver == "amg" {
            amg.push(tracer.span("amg.build", Some(root), |_| {
                time_median(3, || {
                    std::hint::black_box(MgHierarchy::build(
                        &tile.density,
                        deck.problem.coefficient,
                        tile.rx,
                        tile.ry,
                        MgOpts::default(),
                    ));
                })
            }));
        }
    }
    r.set("deck.parse_s", mean(&parse));
    r.set("mesh.assemble_s", mean(&assemble));
    r.set("session.build_s", mean(&build));
    r.set("solver.prepare_s", mean(&prepare));
    r.set("amg.setup_s", mean(&amg));
}

/// Solver counts, the job-time remainder outside solves, and the
/// roofline gap, summed over every job of the drain.
fn ledger_metrics(
    r: &mut Report,
    queue: &[QueuedDeck],
    served: &ServeReport<DeckOutcome>,
    stream_gbs: f64,
) {
    let (mut outer, mut inner, mut sweeps, mut solve_s, mut job_s, mut bytes) =
        (0u64, 0u64, 0u64, 0.0, 0.0, 0.0);
    let (mut halo_bytes, mut reductions) = (0u64, 0u64);
    for o in &served.outcomes {
        let Ok(d) = &o.result else { continue };
        let q = &queue[o.job];
        let t = &d.output.trace;
        outer += t.outer_iterations;
        inner += t.inner_iterations;
        sweeps += t.spmv.total();
        solve_s += d.output.steps.iter().map(|s| s.wall).sum::<f64>();
        job_s += o.wall_s;
        let bounds = TileBounds::serial(q.cells, q.cells);
        bytes += layers::trace_bytes(t, &bounds, solver_elem_bytes(&d.solver));
        halo_bytes += d.output.comm.bytes_sent();
        reductions += d.output.comm.reductions;
    }
    let iter_s = solve_s / outer.max(1) as f64;
    let iter_bytes = bytes / outer.max(1) as f64;
    r.set("solver.iterations", outer as f64);
    r.set("solver.inner_iterations", inner as f64);
    r.set("solver.iter_s", iter_s);
    r.set("solver.unattributed_s", job_s - solve_s);
    r.set("ops.sweeps", sweeps as f64);
    r.set("comms.halo_bytes", halo_bytes as f64);
    r.set("comms.reductions", reductions as f64);
    r.set("perfmodel.iter_bytes", iter_bytes);
    // two jobs run at a time, each with one worker's share of the peak
    r.set(
        "perfmodel.gap",
        iter_s / (iter_bytes / (stream_gbs / WORKERS as f64 * 1e9)),
    );
}
