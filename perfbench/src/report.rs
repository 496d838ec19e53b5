//! The metric table, the result line and the small statistics helpers
//! every workload shares.

use std::collections::BTreeMap;
use std::time::Instant;

/// Which run mode emits a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Printed by the untraced run (`--trace 0`).
    EndToEnd,
    /// Printed by the traced run (`--trace 1`).
    Layer,
}

/// Every metric the benchmark prints: name, unit and run mode. Each
/// workload prints every metric of its mode; a layer metric whose layer
/// is not on a workload's path reads 0 there (see README.md).
pub const METRICS: &[(&str, &str, Kind)] = &[
    ("tts_s", "s", Kind::EndToEnd),
    ("setup_s", "s", Kind::EndToEnd),
    ("jobs_per_s", "jobs/s", Kind::EndToEnd),
    ("job_latency_s.p50", "s", Kind::EndToEnd),
    ("peak_rss_mb", "MiB", Kind::EndToEnd),
    ("vector.dot_s", "s", Kind::Layer),
    ("vector.dot_gbs", "GB/s", Kind::Layer),
    ("vector.axpy_s", "s", Kind::Layer),
    ("vector.axpy_gbs", "GB/s", Kind::Layer),
    ("ops.apply_s", "s", Kind::Layer),
    ("ops.apply_gbs", "GB/s", Kind::Layer),
    ("ops.apply_pct_peak", "%", Kind::Layer),
    ("ops.fused_cheb_s", "s", Kind::Layer),
    ("ops.fused_cheb_gbs", "GB/s", Kind::Layer),
    ("ops.sweeps", "count", Kind::Layer),
    ("runtime.region_us", "us", Kind::Layer),
    ("solver.iterations", "count", Kind::Layer),
    ("solver.inner_iterations", "count", Kind::Layer),
    ("solver.iter_s", "s", Kind::Layer),
    ("solver.prepare_s", "s", Kind::Layer),
    ("solver.unattributed_s", "s", Kind::Layer),
    ("comms.halo_bytes", "B", Kind::Layer),
    ("comms.reductions", "count", Kind::Layer),
    ("comms.halo_exchange_s", "s", Kind::Layer),
    ("comms.allreduce_s", "s", Kind::Layer),
    ("comms.rank_wait_s", "s", Kind::Layer),
    ("mesh.assemble_s", "s", Kind::Layer),
    ("deck.parse_s", "s", Kind::Layer),
    ("session.build_s", "s", Kind::Layer),
    ("session.hits", "count", Kind::Layer),
    ("session.misses", "count", Kind::Layer),
    ("session.hit_ratio", "ratio", Kind::Layer),
    ("serve.busy_ratio", "ratio", Kind::Layer),
    ("serve.job_s.p99", "s", Kind::Layer),
    ("serve.retries", "count", Kind::Layer),
    ("serve.job_s.cg", "s", Kind::Layer),
    ("serve.job_s.cg_fused", "s", Kind::Layer),
    ("serve.job_s.chebyshev", "s", Kind::Layer),
    ("serve.job_s.ppcg", "s", Kind::Layer),
    ("serve.job_s.mixed_cg", "s", Kind::Layer),
    ("serve.job_s.amg", "s", Kind::Layer),
    ("serve.job_s.auto", "s", Kind::Layer),
    ("tune.overhead_ratio", "ratio", Kind::Layer),
    ("tune.reuse_unconverged", "count", Kind::Layer),
    ("amg.setup_s", "s", Kind::Layer),
    ("perfmodel.iter_bytes", "B", Kind::Layer),
    ("perfmodel.gap", "ratio", Kind::Layer),
    ("trace.overhead_ratio", "ratio", Kind::Layer),
    ("machine.stream_gbs", "GB/s", Kind::Layer),
    ("fail_ratio", "ratio", Kind::Layer),
];

/// The unit of a named metric.
///
/// # Panics
/// On a name missing from [`METRICS`] — a bug in this benchmark.
pub fn unit_of(name: &str) -> &'static str {
    METRICS
        .iter()
        .find(|(n, _, _)| *n == name)
        .map(|(_, u, _)| *u)
        .unwrap_or_else(|| panic!("metric {name} is not in the metric table"))
}

/// Operations attempted and failed (convergence or answer check).
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one operation, failed unless `ok`.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn fail_ratio(&self) -> f64 {
        if self.attempted == 0 {
            return 1.0;
        }
        self.failed as f64 / self.attempted as f64
    }
}

/// One run's result: the tally and the metrics of its mode.
#[derive(Debug, Default)]
pub struct Report {
    pub tally: Tally,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        unit_of(name);
        self.metrics.insert(name, value);
    }

    /// Metrics of `kind` that this report lacks.
    pub fn missing(&self, kind: Kind) -> Vec<&'static str> {
        METRICS
            .iter()
            .filter(|(n, _, k)| *k == kind && !self.metrics.contains_key(n))
            .map(|(n, _, _)| *n)
            .collect()
    }

    /// The result line: `correct`, `attempted`, `failed` and every
    /// metric of `kind` with its unit. A run is correct when every
    /// operation passed its checks and every metric is a finite number.
    pub fn json_line(&self, kind: Kind) -> String {
        let mut finite = true;
        let mut fields = Vec::new();
        for (name, unit, k) in METRICS {
            if *k != kind {
                continue;
            }
            let v = self.metrics.get(name).copied().unwrap_or(f64::NAN);
            let shown = if v.is_finite() {
                format!("{v:?}")
            } else {
                finite = false;
                "0.0".to_string()
            };
            fields.push(format!(
                "\"{name}\": {{\"value\": {shown}, \"unit\": \"{unit}\"}}"
            ));
        }
        let correct = finite && self.tally.failed == 0 && self.tally.attempted > 0;
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.tally.attempted,
            self.tally.failed,
            fields.join(", ")
        )
    }
}

/// Median of a sample (mean of the middle pair for even sizes).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Linear-interpolated percentile `q` in `[0, 1]` of a sample.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// One timed repetition of a workload.
pub struct Rep<T> {
    pub wall: f64,
    /// CPU seconds the host stole from this machine's vCPUs during it
    /// (NaN if the counter is unreadable).
    pub stolen: f64,
    pub out: T,
}

impl<T> Rep<T> {
    /// The wall time net of host steal, `wall − stall · stolen`. `stall`
    /// is the share of the stolen CPU time that holds the workload up: 1
    /// for one thread, or for threads that wait for each other at every
    /// sweep or halo exchange; `1/w` for `w` workers that share a queue
    /// and keep going while another is stolen from. No more than three
    /// quarters of a repetition is ever written off as steal.
    pub fn net(&self, stall: f64) -> f64 {
        let stolen = if self.stolen.is_finite() {
            self.stolen
        } else {
            0.0
        };
        (self.wall - stall * stolen).max(0.25 * self.wall)
    }
}

/// Set-up samples taken before each repetition. Spread over the whole
/// run, they sample the same stretch of time as the repetitions, not
/// one moment at its start.
pub const SETUPS_PER_REP: usize = 5;

/// Repeats `rep` until `seconds` is spent (at least once), recording
/// each repetition's wall time and the host steal during it, and
/// [`SETUPS_PER_REP`] samples of `setup` (which times itself) before
/// each. `keep` reduces each result to what the metrics need, outside
/// the timing, so a run holds no more than one repetition's output at a
/// time. Returns the repetitions and the set-up samples.
pub fn repeat<R, T>(
    seconds: f64,
    mut setup: impl FnMut() -> f64,
    mut rep: impl FnMut() -> R,
    mut keep: impl FnMut(R) -> T,
) -> (Vec<Rep<T>>, Vec<f64>) {
    let start = Instant::now();
    let mut reps: Vec<Rep<T>> = Vec::new();
    let mut setups = Vec::new();
    loop {
        setups.extend((0..SETUPS_PER_REP).map(|_| setup()));
        let steal = crate::machine::steal_s();
        let t = Instant::now();
        let out = rep();
        let wall = t.elapsed().as_secs_f64();
        let stolen = crate::machine::steal_s() - steal;
        reps.push(Rep {
            wall,
            stolen,
            out: keep(out),
        });
        let walls: Vec<f64> = reps.iter().map(|r| r.wall).collect();
        if start.elapsed().as_secs_f64() + median(&walls) > seconds {
            break;
        }
    }
    (reps, setups)
}

/// Each repetition's wall time net of host steal ([`Rep::net`]). Logs
/// the raw and net medians and the steal to stderr, so the spread of
/// both can be compared over runs.
pub fn net_walls<T>(reps: &[Rep<T>], stall: f64) -> Vec<f64> {
    let net: Vec<f64> = reps.iter().map(|r| r.net(stall)).collect();
    eprintln!(
        "perfbench: {} repetitions, wall median {:.4} s raw, {:.4} s net of steal \
         (median {:.3} s stolen per repetition, stall share {stall})",
        reps.len(),
        median(&reps.iter().map(|r| r.wall).collect::<Vec<_>>()),
        median(&net),
        median(&reps.iter().map(|r| r.stolen).collect::<Vec<_>>()),
    );
    net
}

/// Median wall time of `reps` calls of `f`, in seconds.
pub fn time_median(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}
