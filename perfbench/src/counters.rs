//! Layer counters read around the engine calls: runtime pool and CPU
//! time, and KV-cache tile and memory statistics.

use crate::Report;
use std::time::{Duration, Instant};
use turbo_kvcache::LayerKvCache;
use turbo_runtime::{worker_count_from, Runtime, ENV_WORKERS};

/// Worker count of the benchmark's pool: `TURBO_RUNTIME_THREADS`, else
/// `nproc`, by the same rule as `turbo_runtime::global`.
pub fn pool_workers() -> usize {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    worker_count_from(std::env::var(ENV_WORKERS).ok().as_deref(), nproc)
}

/// CPU time of this process (all threads) in seconds, from
/// `/proc/self/stat`. Linux reports utime and stime in `USER_HZ` ticks,
/// which is 100 per second on every mainstream Linux ABI (x86, arm64);
/// this reader assumes that value rather than querying `sysconf`.
fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = &stat[stat.rfind(')').expect("stat command name") + 2..];
    let ticks: u64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .map(|v| v.parse::<u64>().expect("numeric utime/stime"))
        .sum();
    ticks as f64 / 100.0
}

/// A private pool for the pooled engine calls of a traced run, with the
/// process CPU time and wall time spent in them. The pool runs nothing
/// else, so its `Runtime::snapshot` totals, `max_queue_depth` included,
/// cover exactly these calls.
pub struct PoolMeter {
    pool: Runtime,
    cpu_s: f64,
    wall: Duration,
}

impl PoolMeter {
    /// A fresh pool of [`pool_workers`] workers.
    pub fn new() -> Self {
        Self {
            pool: Runtime::with_workers(pool_workers()),
            cpu_s: 0.0,
            wall: Duration::ZERO,
        }
    }

    /// Runs `f` on the pool as one metered engine call.
    pub fn measure<R>(&mut self, f: impl FnOnce(&Runtime) -> R) -> R {
        let (cpu, start) = (process_cpu_s(), Instant::now());
        let out = f(&self.pool);
        self.wall += start.elapsed();
        self.cpu_s += process_cpu_s() - cpu;
        out
    }

    /// Records the `runtime.*` metrics per request over `n` metered
    /// requests. Busy time is process CPU time over `nproc` × wall: the
    /// pool's own task-time counter counts a nested task inside its
    /// parent's time as well. `peak_in_flight` comes from
    /// `PipelineStats` where a layer pipeline ran.
    pub fn report(&self, report: &mut Report, n: f64, peak_in_flight: Option<usize>) {
        let snap = self.pool.snapshot();
        let cores = std::thread::available_parallelism().map_or(1, |c| c.get()) as f64;
        let capacity_s = cores * self.wall.as_secs_f64();
        report.set("runtime.tasks", snap.tasks_run as f64 / n);
        report.set("runtime.steals", snap.tasks_stolen as f64 / n);
        report.set("runtime.helper_tasks", snap.helper_tasks as f64 / n);
        report.set("runtime.max_queue_depth", snap.max_queue_depth as f64);
        report.set("runtime.busy_frac", self.cpu_s / capacity_s);
        report.set("runtime.idle_ms", (capacity_s - self.cpu_s) * 1e3 / n);
        if let Some(peak) = peak_in_flight {
            report.set("runtime.peak_in_flight", peak as f64);
        }
    }
}

/// Tile-cache and memory statistics of `layers` holding `tokens` tokens.
pub fn set_cache_stats(report: &mut Report, layers: &[&LayerKvCache], tokens: usize) {
    let (mut hits, mut misses, mut total, mut fp16) = (0u64, 0u64, 0usize, 0usize);
    for layer in layers {
        let mem = layer.memory_stats();
        total += mem.total_bytes();
        fp16 += mem.fp16_bytes;
        for head in layer.iter() {
            let s = head.tile_cache_stats();
            hits += s.hits;
            misses += s.misses;
        }
    }
    report.set(
        "kvcache.tile_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    report.set("kvcache.tile_misses", misses as f64);
    report.set("kvcache.bytes_per_token", total as f64 / tokens as f64);
    report.set("kvcache.compression_ratio", fp16 as f64 / total as f64);
}
