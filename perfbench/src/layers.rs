//! Per-layer timings for the traced run: each layer's public kernel
//! called on fields shaped like the workload's tile, at its precision,
//! thread count and rank count, and the ledger that prices a solve's
//! recorded call counts with them.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::report::{median, Report};
use crate::tile::{decomposition, RankTile};
use tea_app::Deck;
use tea_comms::{exchange_halo_many, run_threaded, Communicator, SerialComm};
use tea_core::trace::HaloKey;
use tea_core::{par_threshold, set_num_threads, vector, KernelCounts, SolveTrace, TileBounds};
use tea_mesh::{Field2, Field2D, Scalar};
use tea_perfmodel::{kernel_roofline, KernelBytes};

/// Timing blocks per kernel; the per-call time is the median block.
const BLOCKS: usize = 5;

/// Per-call times (seconds) of one rank's kernels; across ranks the
/// slowest rank's figure is kept, since it sets the pace of the solve.
#[derive(Debug, Clone)]
pub struct KernelTimes {
    pub bounds: TileBounds,
    pub dot_s: f64,
    pub axpy_s: f64,
    pub apply_s: f64,
    pub fused_cheb_s: f64,
    /// Diagonal preconditioner apply (`mul_into`) at the
    /// preconditioner's precision.
    pub precon_s: f64,
    pub halo_s: BTreeMap<HaloKey, f64>,
    pub allreduce_s: f64,
}

/// Runs `f` once per rank: on a serial communicator for one rank, one
/// thread per rank otherwise.
fn on_ranks<T: Send>(ranks: usize, f: impl Fn(&dyn Communicator) -> T + Sync) -> Vec<T> {
    if ranks == 1 {
        vec![f(SerialComm::new().as_dyn())]
    } else {
        run_threaded(ranks, |comm| f(comm.as_dyn()))
    }
}

/// Median per-call time of `f` over [`BLOCKS`] blocks of `calls`
/// calls, the ranks released together by a barrier before each block.
fn per_call(comm: &dyn Communicator, calls: usize, mut f: impl FnMut()) -> f64 {
    f();
    let blocks: Vec<f64> = (0..BLOCKS)
        .map(|_| {
            comm.barrier();
            let t = Instant::now();
            for _ in 0..calls {
                f();
            }
            t.elapsed().as_secs_f64() / calls as f64
        })
        .collect();
    median(&blocks)
}

/// A field with seeded, non-uniform values in `[1, 1.001)` everywhere,
/// halo included, so no kernel sees degenerate data.
fn seeded<S: Scalar>(like: &Field2D, rng: &mut crate::Rng) -> Field2<S> {
    let mut f = Field2::<S>::new(like.nx(), like.ny(), like.halo());
    for v in f.raw_mut() {
        *v = S::from_f64(1.0 + 1e-3 * rng.unit());
    }
    f
}

/// Times every kernel the ledger prices, on each rank of the deck's
/// decomposition. `halo` is the solver's halo depth and `halo_keys` the
/// (depth, fields) exchanges the solve recorded.
pub fn kernel_times(
    deck: &Deck,
    ranks: usize,
    halo: usize,
    precon_f32: bool,
    halo_keys: &[HaloKey],
    seed: u64,
) -> KernelTimes {
    let decomp = decomposition(deck, ranks);
    let per_rank = on_ranks(ranks, |comm| {
        let tile = RankTile::new(deck, &decomp, comm.rank(), halo);
        let op = tile.operator();
        let bounds = op.bounds;
        let calls = ((1usize << 22) / tile.cells()).clamp(4, 4096);
        let mut rng = crate::Rng::new(seed ^ comm.rank() as u64);
        let like = Field2D::new(tile.mesh.nx(), tile.mesh.ny(), halo);
        let (x, mut y, mut z, mut w) = (
            seeded::<f64>(&like, &mut rng),
            seeded::<f64>(&like, &mut rng),
            seeded::<f64>(&like, &mut rng),
            seeded::<f64>(&like, &mut rng),
        );
        let mut tr = SolveTrace::new("perfbench");
        let dot_s = per_call(comm, calls, || {
            std::hint::black_box(vector::dot_local(&x, &y, &bounds, &mut tr));
        });
        let axpy_s = per_call(comm, calls, || {
            vector::axpy(&mut y, 1e-12, &x, &bounds, 0, &mut tr);
        });
        let apply_s = per_call(comm, calls, || op.apply(&x, &mut w, 0, &mut tr));
        let fused_cheb_s = per_call(comm, calls, || {
            op.apply_cheb_fused(&x, &mut z, &mut w, 0, &mut tr);
        });
        let precon_s = if precon_f32 {
            precon_time::<f32>(comm, calls, &bounds, &like, &mut rng)
        } else {
            precon_time::<f64>(comm, calls, &bounds, &like, &mut rng)
        };
        let halo_s = halo_keys
            .iter()
            .map(|&(depth, nfields)| {
                let mut fields: Vec<Field2D> = (0..nfields.max(1))
                    .map(|_| seeded::<f64>(&like, &mut rng))
                    .collect();
                let t = per_call(comm, calls, || {
                    let mut refs: Vec<&mut Field2D> = fields.iter_mut().collect();
                    exchange_halo_many(&mut refs, &tile.layout, comm, depth as usize);
                });
                ((depth, nfields), t)
            })
            .collect();
        let allreduce_s = per_call(comm, calls, || {
            std::hint::black_box(comm.allreduce_sum(1.0));
        });
        KernelTimes {
            bounds,
            dot_s,
            axpy_s,
            apply_s,
            fused_cheb_s,
            precon_s,
            halo_s,
            allreduce_s,
        }
    });
    slowest(per_rank)
}

fn precon_time<S: Scalar>(
    comm: &dyn Communicator,
    calls: usize,
    bounds: &TileBounds,
    like: &Field2D,
    rng: &mut crate::Rng,
) -> f64 {
    let (a, b, mut d) = (
        seeded::<S>(like, rng),
        seeded::<S>(like, rng),
        seeded::<S>(like, rng),
    );
    let mut tr = SolveTrace::new("perfbench");
    per_call(comm, calls, || {
        vector::mul_into(&mut d, &a, &b, bounds, 0, &mut tr);
    })
}

fn slowest(mut per_rank: Vec<KernelTimes>) -> KernelTimes {
    let mut out = per_rank.remove(0);
    for r in per_rank {
        out.dot_s = out.dot_s.max(r.dot_s);
        out.axpy_s = out.axpy_s.max(r.axpy_s);
        out.apply_s = out.apply_s.max(r.apply_s);
        out.fused_cheb_s = out.fused_cheb_s.max(r.fused_cheb_s);
        out.precon_s = out.precon_s.max(r.precon_s);
        out.allreduce_s = out.allreduce_s.max(r.allreduce_s);
        for (k, v) in r.halo_s {
            let e = out.halo_s.entry(k).or_insert(v);
            *e = e.max(v);
        }
    }
    out
}

/// Sum over extensions of `count × cells(ext) / cells(0)`: sweeps in
/// units of one interior sweep.
fn interior_sweeps(counts: &KernelCounts, bounds: &TileBounds) -> f64 {
    let base = bounds.cells(0) as f64;
    counts
        .sweeps_by_extension
        .iter()
        .map(|(&ext, &n)| n as f64 * bounds.cells(ext as usize) as f64 / base)
        .sum()
}

/// Seconds the solve's recorded calls cost at the measured per-call
/// times: stencil sweeps, fused Chebyshev sweeps, vector updates, dots,
/// preconditioner applies, halo exchanges and reductions.
pub fn attributed_s(trace: &SolveTrace, kt: &KernelTimes) -> f64 {
    let b = &kt.bounds;
    let fused = interior_sweeps(&trace.fused_updates, b);
    // a fused Chebyshev sweep records one spmv and one fused update
    let plain = interior_sweeps(&trace.spmv, b) - fused;
    let halo: f64 = trace
        .halo_exchanges
        .iter()
        .map(|(key, &n)| n as f64 * kt.halo_s.get(key).copied().unwrap_or(0.0))
        .sum();
    plain * kt.apply_s
        + fused * kt.fused_cheb_s
        + interior_sweeps(&trace.vector_ops, b) * kt.axpy_s
        + interior_sweeps(&trace.dot_kernels, b) * kt.dot_s
        + interior_sweeps(&trace.precon_ops, b) * kt.precon_s
        + halo
        + trace.reductions as f64 * kt.allreduce_s
}

/// Computed bytes the solve's recorded sweeps move at `elem_bytes` per
/// element (tea-perfmodel's per-class element counts).
pub fn trace_bytes(trace: &SolveTrace, bounds: &TileBounds, elem_bytes: f64) -> f64 {
    let kb = KernelBytes::for_width(elem_bytes);
    let cells = bounds.cells(0) as f64;
    cells
        * (interior_sweeps(&trace.spmv, bounds) * kb.spmv
            + interior_sweeps(&trace.fused_updates, bounds) * kb.fused_update
            + interior_sweeps(&trace.vector_ops, bounds) * kb.vector
            + interior_sweeps(&trace.dot_kernels, bounds) * kb.dot
            + interior_sweeps(&trace.precon_ops, bounds) * kb.precon)
}

/// Extra microseconds of one parallel sweep just above
/// `par_threshold()` at `threads` threads over the same call at one
/// thread. The sweep is an f32 axpy so both thread counts run the same
/// lane body (f64 at one thread switches to the scalar reference body).
pub fn region_us(threads: usize) -> f64 {
    let n = (par_threshold() as f64).sqrt().ceil() as usize + 1;
    let bounds = TileBounds::serial(n, n);
    let x = Field2::<f32>::filled(n, n, 1, 1.0);
    let mut y = Field2::<f32>::filled(n, n, 1, 1.0);
    let mut tr = SolveTrace::new("perfbench");
    let serial = SerialComm::new();
    let mut time_at = |t: usize| {
        set_num_threads(t);
        per_call(serial.as_dyn(), 400, || {
            vector::axpy(&mut y, 1e-7, &x, &bounds, 0, &mut tr);
        })
    };
    let one = time_at(1);
    let many = time_at(threads);
    set_num_threads(threads);
    (many - one) * 1e6
}

/// Kernel per-call times and their computed bandwidths. Bytes are the
/// roofline model's f64 bytes per interior cell, not measured traffic.
/// `share_gbs` is one caller's share of the streaming peak: the peak
/// measured at the workload's full concurrency, split over the ranks
/// (or serve workers) that run kernels at the same time.
pub fn kernel_metrics(r: &mut Report, kt: &KernelTimes, share_gbs: f64) {
    let cells = kt.bounds.cells(0) as f64;
    let gbs = |kernel: &str, s: f64| {
        kernel_roofline(kernel)
            .expect("modelled kernel")
            .achieved_bandwidth(cells, 8.0, s)
            / 1e9
    };
    r.set("vector.dot_s", kt.dot_s);
    r.set("vector.dot_gbs", gbs("dot", kt.dot_s));
    r.set("vector.axpy_s", kt.axpy_s);
    r.set("vector.axpy_gbs", gbs("axpy", kt.axpy_s));
    r.set("ops.apply_s", kt.apply_s);
    r.set("ops.apply_gbs", gbs("apply", kt.apply_s));
    r.set(
        "ops.apply_pct_peak",
        100.0 * gbs("apply", kt.apply_s) / share_gbs,
    );
    r.set("ops.fused_cheb_s", kt.fused_cheb_s);
    r.set("ops.fused_cheb_gbs", gbs("fused_cheb", kt.fused_cheb_s));
    r.set("comms.allreduce_s", kt.allreduce_s);
    // the deepest exchange the solve made: the matrix-powers halo
    let deepest = kt
        .halo_s
        .iter()
        .max_by_key(|(k, _)| **k)
        .map_or(0.0, |(_, &t)| t);
    r.set("comms.halo_exchange_s", deepest);
}
