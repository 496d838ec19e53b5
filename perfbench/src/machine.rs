//! The machine record printed with every run, the in-run streaming
//! calibration, and peak resident memory.

use std::time::Instant;

/// What a later reader needs to re-check a figure: cores, cache sizes,
/// toolchain and the commit the benchmark was built from.
pub fn record() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "{{\"nproc\": {nproc}, \"l2\": \"{}\", \"l3\": \"{}\", \"rustc\": \"{}\", \"commit\": \"{}\"}}",
        cache_size(2),
        cache_size(3),
        env!("PERFBENCH_RUSTC"),
        commit()
    )
}

/// Size of the unified cache at `level` as the kernel reports it
/// (e.g. `2048K`), or `unknown`.
fn cache_size(level: u32) -> String {
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(l), Some(t), Some(s)) = (read("level"), read("type"), read("size")) else {
            continue;
        };
        if l.trim() == level.to_string() && t.trim() == "Unified" {
            return s.trim().to_string();
        }
    }
    "unknown".to_string()
}

/// The checked-out commit, read from `.git` in the working directory;
/// `unknown` in an export without git metadata.
fn commit() -> String {
    let Ok(head) = std::fs::read_to_string(".git/HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(hash) = std::fs::read_to_string(format!(".git/{reference}")) {
        return hash.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Seconds of CPU time the host has stolen from this machine's vCPUs
/// since boot (`steal` in `/proc/stat`, at the usual 100 ticks per
/// second). On a shared host, steal during a run is the main source of
/// run-to-run spread.
pub fn steal_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("cpu "))
                .and_then(|l| l.split_whitespace().nth(8))
                .and_then(|t| t.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |ticks| ticks / 100.0)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Elements per array of the streaming calibration: three 16 MiB f64
/// arrays. The working set is cache-resident on a machine with a large
/// L3, so this is the peak the cache-resident kernels can reach, not a
/// DRAM bandwidth.
const STREAM_ELEMS: usize = 1 << 21;

/// Streaming peak in GB/s: the fused update `a += b + 3c` (32 computed
/// bytes per element, read-modify-write so counted bytes equal moved
/// bytes) on `threads` threads, best of 50 passes after a
/// page-fault warm-up.
pub fn stream_gbs(threads: usize) -> f64 {
    let n = STREAM_ELEMS;
    let b = vec![1.5f64; n];
    let c = vec![2.5f64; n];
    let mut a = vec![0.0f64; n];
    let chunk = n.div_ceil(threads.max(1));
    let mut best = f64::INFINITY;
    for _ in 0..50 {
        let start = Instant::now();
        std::thread::scope(|s| {
            for ((ac, bc), cc) in a
                .chunks_mut(chunk)
                .zip(b.chunks(chunk))
                .zip(c.chunks(chunk))
            {
                s.spawn(move || {
                    for ((av, &bv), &cv) in ac.iter_mut().zip(bc).zip(cc) {
                        *av += bv + 3.0 * cv;
                    }
                });
            }
        });
        best = best.min(start.elapsed().as_secs_f64());
    }
    std::hint::black_box(&a);
    n as f64 * 32.0 / best / 1e9
}
