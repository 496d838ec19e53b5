//! The repository benchmark. One command runs one workload for a fixed
//! measuring time, checks every answer, and prints one JSON result line
//! with every end-to-end metric (`--trace 0`) or every per-layer metric
//! (`--trace 1`). See README.md for the metric table and workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload cg-serial --seed 1 --seconds 20 --trace 0
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --selftest
//! ```

mod layers;
mod machine;
mod report;
mod serve;
mod solvers;
mod spans;
mod tile;

use report::{Kind, Report, METRICS};
use solvers::{SolverWorkload, CG_SERIAL, MIXED_THREADS, PPCG_RANKS};
use spans::Tracer;

pub const WORKLOADS: [&str; 4] = ["cg-serial", "mixed-threads", "ppcg-ranks", "serve-mix"];

/// A splitmix64 stream: the seeded source of every generated input.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        let z = tea_tune::splitmix64(self.0);
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    selftest: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        selftest: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--selftest" {
            args.selftest = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? == 1,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !args.selftest && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn solver_workload(name: &str) -> Option<SolverWorkload> {
    [CG_SERIAL, MIXED_THREADS, PPCG_RANKS]
        .into_iter()
        .find(|w| w.name == name)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> \
                 | --selftest"
            );
            std::process::exit(2);
        }
    };
    if args.selftest {
        std::process::exit(selftest());
    }
    println!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"machine\": {}, \
         \"bytes\": \"computed from the roofline model, not measured\", \
         \"working_sets\": \"cache-resident (L3 holds every tile and the stream arrays)\"}}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        machine::record()
    );
    let tracer = Tracer::new();
    let steal = machine::steal_s();
    let report = run(&args.workload, args.seed, args.seconds, args.trace, &tracer);
    eprintln!(
        "perfbench: host steal during the run: {:.2} s",
        machine::steal_s() - steal
    );
    if args.trace {
        let path = format!(
            "perfbench/out/spans-{}-seed{}.json",
            args.workload, args.seed
        );
        if let Err(e) = tracer.write(std::path::Path::new(&path)) {
            eprintln!("perfbench: could not write {path}: {e}");
        }
    }
    let kind = if args.trace {
        Kind::Layer
    } else {
        Kind::EndToEnd
    };
    println!("{}", report.json_line(kind));
}

fn run(workload: &str, seed: u64, seconds: f64, trace: bool, tracer: &Tracer) -> Report {
    match solver_workload(workload) {
        Some(w) if trace => solvers::trace(&w, w.cells, seed, w.reference(), tracer),
        Some(w) => solvers::measure(&w, w.cells, seconds, w.reference()),
        None if trace => serve::trace(seed, serve::FULL, tracer),
        None => serve::measure(seed, serve::FULL, seconds),
    }
}

/// Runs every workload at a tiny size in both modes and checks that
/// every metric is emitted with its unit (and matches BENCHMARK.json
/// when run from the repository root), that every answer passes, and
/// that every check path fails a corrupted answer. Returns the exit code.
fn selftest() -> i32 {
    let mut problems = Vec::new();
    let tiny_queue = serve::QueueShape {
        rungs: &[16, 24],
        repeats: 2,
    };
    let tracer = Tracer::new();
    for name in WORKLOADS {
        for trace in [false, true] {
            let report = match solver_workload(name) {
                Some(w) => {
                    let reference = tiny_reference(w);
                    if trace {
                        solvers::trace(&w, tiny(w), 7, reference, &tracer)
                    } else {
                        solvers::measure(&w, tiny(w), 0.1, reference)
                    }
                }
                None if trace => serve::trace(7, tiny_queue, &tracer),
                None => serve::measure(7, tiny_queue, 0.1),
            };
            let kind = if trace { Kind::Layer } else { Kind::EndToEnd };
            let line = report.json_line(kind);
            if !line.starts_with("{\"correct\": true") {
                problems.push(format!("{name} trace={trace}: {line}"));
            }
            for missing in report.missing(kind) {
                problems.push(format!("{name} trace={trace}: no {missing}"));
            }
            println!("selftest {name} trace={trace}: {line}");
        }
    }

    // every corrupted answer must fail its check: the residual path
    // on one rank and against a serial reference, the summary path and
    // the serve path
    for w in [CG_SERIAL, PPCG_RANKS] {
        let tally = solvers::check_corrupted(&w, tiny(w), tiny_reference(w));
        report_corrupted(
            &mut problems,
            w.name,
            tally,
            if w.ranks > 1 { 4 } else { 3 },
        );
    }
    let tally = serve::check_corrupted(7, tiny_queue);
    report_corrupted(&mut problems, "serve-mix", tally, 1);

    problems.extend(check_benchmark_json());
    for p in &problems {
        eprintln!("selftest FAILED: {p}");
    }
    if problems.is_empty() {
        println!("selftest ok");
        0
    } else {
        1
    }
}

/// The self-test mesh size of a solver workload.
fn tiny(w: SolverWorkload) -> usize {
    if w.ranks > 1 {
        64
    } else {
        32
    }
}

/// The serial reference of a self-test-size decomposed workload.
fn tiny_reference(w: SolverWorkload) -> Option<solvers::SerialReference> {
    (w.ranks > 1).then(|| solvers::serial_reference(&w, tiny(w)))
}

/// Records a problem unless all `expected` corrupted answers failed.
fn report_corrupted(problems: &mut Vec<String>, name: &str, tally: report::Tally, expected: u64) {
    println!(
        "selftest {name} corrupted answers: {} of {} failed, fail_ratio {}",
        tally.failed,
        tally.attempted,
        tally.fail_ratio()
    );
    if tally.attempted != expected || tally.failed != expected {
        problems.push(format!(
            "{name}: {} of {expected} corrupted answers failed their check",
            tally.failed
        ));
    }
}

/// Checks that BENCHMARK.json, if present in the working directory,
/// names exactly the metric table's metrics with the same units.
fn check_benchmark_json() -> Vec<String> {
    let Ok(text) = std::fs::read_to_string("BENCHMARK.json") else {
        return vec![];
    };
    let json = match tea_audit::json::parse(&text) {
        Ok(j) => j,
        Err(e) => return vec![format!("BENCHMARK.json does not parse: {e}")],
    };
    let mut problems = Vec::new();
    for (key, kind) in [("end_to_end", Kind::EndToEnd), ("per_layer", Kind::Layer)] {
        let listed: Vec<(String, String)> = json
            .get(key)
            .and_then(|v| v.as_array())
            .unwrap_or_default()
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(|v| v.as_str()).unwrap_or("").to_string();
                (field("name"), field("unit"))
            })
            .collect();
        let table: Vec<(String, String)> = METRICS
            .iter()
            .filter(|(_, _, k)| *k == kind)
            .map(|(n, u, _)| (n.to_string(), u.to_string()))
            .collect();
        if listed != table {
            problems.push(format!(
                "BENCHMARK.json {key} differs from the metric table: {listed:?} vs {table:?}"
            ));
        }
    }
    problems
}
