//! End-to-end and per-layer benchmark of the TurboAttention reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <durable_chat|long_prompt|serve_sim> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the untraced system and prints the end-to-end
//! metrics; `--trace 1` replays the same requests with a span around
//! every call into a layer and prints the per-layer metrics. The last
//! line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! The line before it is the host fingerprint. A failed correctness
//! check counts as a failed request and makes the process exit 1.
//! See `perfbench/README.md` for the workloads and the layer map.

mod chat;
mod counters;
mod kernels;
mod long_prompt;
mod serve_sim;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

/// End-to-end metrics: printed by every workload with `--trace 0`.
/// Names and units match `BENCHMARK.json`.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ttft_ms_p50", "ms"),
    ("tpot_ms_p50", "ms"),
    ("req_ms_p50", "ms"),
    ("tok_s", "tok/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: printed by every workload with `--trace 1`; a
/// layer the workload bypasses reads 0. A `.computed` unit marks a count
/// derived from tensor shapes rather than measured.
const PER_LAYER: &[(&str, &str)] = &[
    ("ttft_ms_p90", "ms"),
    ("tpot_ms_p90", "ms"),
    ("req_ms_p90", "ms"),
    ("recover_ms_p50", "ms"),
    ("recover_ms_p90", "ms"),
    ("sim_req_s", "req/s"),
    ("attn_rel_err", "ratio"),
    ("attention.attend_us_p50", "us"),
    ("attention.attend_calls", "count"),
    ("attention.project_us_p50", "us"),
    ("attention.prefill_head_ms_p50", "ms"),
    ("attention.decode_head_us_p50", "us"),
    ("kvcache.append_us_p50", "us"),
    ("kvcache.append_us_p99", "us"),
    ("kvcache.flushes", "count"),
    ("kvcache.tile_hit_ratio", "ratio"),
    ("kvcache.tile_misses", "count"),
    ("kvcache.bytes_per_token", "B"),
    ("kvcache.compression_ratio", "ratio"),
    ("layer_wal.commit_us_p50", "us"),
    ("layer_wal.record_bytes", "B"),
    ("layer_wal.syncs", "count"),
    ("layer_wal.checkpoint_ms_p50", "ms"),
    ("layer_wal.checkpoint_bytes", "B"),
    ("layer_wal.replayed_records", "count"),
    ("layer_wal.replay_mb_s", "MB/s"),
    ("runtime.tasks", "count"),
    ("runtime.steals", "count"),
    ("runtime.helper_tasks", "count"),
    ("runtime.max_queue_depth", "count"),
    ("runtime.busy_frac", "ratio"),
    ("runtime.idle_ms", "ms"),
    ("runtime.peak_in_flight", "count"),
    ("tensor.i8_macs", "MAC.computed"),
    ("tensor.bytes_moved", "B.computed"),
    ("tensor.dot_i8_ns_per_kmac", "ns/kmac"),
    ("tensor.gemm_i8_ns_per_kmac", "ns/kmac"),
    ("tensor.simd_speedup", "ratio"),
    ("softmax.exp_evals", "exp.computed"),
    ("softmax.exp_ns_per_k", "ns/k"),
    ("quant.encode_ns_per_k", "ns/k"),
    ("gpusim.sim_ms_p50", "ms"),
    ("gpusim.steps", "count"),
    ("gpusim.step_us", "us"),
    ("gpusim.modeled_tok_s.turbo3.r4", "tok/s"),
    ("gpusim.modeled_tok_s.turbo3.r16", "tok/s"),
    ("gpusim.modeled_tok_s.fp16.r4", "tok/s"),
    ("gpusim.modeled_tok_s.fp16.r16", "tok/s"),
    ("gpusim.modeled_ttft_p95_s.turbo3.r4", "s"),
    ("gpusim.modeled_ttft_p95_s.turbo3.r16", "s"),
    ("gpusim.modeled_ttft_p95_s.fp16.r4", "s"),
    ("gpusim.modeled_ttft_p95_s.fp16.r16", "s"),
    ("gpusim.modeled_peak_batch.turbo3.r4", "count"),
    ("gpusim.modeled_peak_batch.turbo3.r16", "count"),
    ("gpusim.modeled_peak_batch.fp16.r4", "count"),
    ("gpusim.modeled_peak_batch.fp16.r16", "count"),
    ("gpusim.rejected.turbo3.r4", "count"),
    ("gpusim.rejected.turbo3.r16", "count"),
    ("gpusim.rejected.fp16.r4", "count"),
    ("gpusim.rejected.fp16.r16", "count"),
    ("gpusim.modeled_tok_s_ratio.r4", "ratio"),
    ("gpusim.modeled_tok_s_ratio.r16", "ratio"),
    ("trace.unattributed_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Largest share of a traced section's wall time its spans may leave
/// unattributed before the traced run fails.
const UNATTRIBUTED_BOUND: f64 = 0.10;

/// What one run measured, plus its request ledger.
#[derive(Default)]
pub struct Report {
    metrics: BTreeMap<String, f64>,
    /// Requests attempted in the timed loop.
    pub attempted: usize,
    /// Requests whose correctness check failed.
    pub failed: usize,
    /// The first few failure messages, for standard error.
    errors: Vec<String>,
}

impl Report {
    /// Records metric `name`.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    /// Records the latencies (ms) and per-request throughputs (tok/s) of
    /// a run's untraced engine requests: their medians in the untraced
    /// run, the latency p90s in the traced one.
    pub fn requests(
        &mut self,
        trace: bool,
        ttft: &[f64],
        tpot: &[f64],
        req: &[f64],
        tok_s: &[f64],
    ) {
        let p = if trace { 90.0 } else { 50.0 };
        for (name, values) in [("ttft_ms", ttft), ("tpot_ms", tpot), ("req_ms", req)] {
            self.set(format!("{name}_p{p}"), trace::percentile(values, p));
        }
        if !trace {
            self.set("tok_s", trace::percentile(tok_s, 50.0));
        }
    }

    /// Counts one request and its correctness verdict.
    pub fn request(&mut self, check: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = check {
            self.fail(e);
        }
    }

    /// Records a failed check.
    pub fn fail(&mut self, e: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(e);
        }
    }
}

/// Settings of one measured run.
pub struct RunConfig {
    /// Measurement window of the timed loop, in seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

/// One benchmark workload: a seeded set-up, then a timed loop.
pub trait Workload: Sized {
    /// Per-layer metric name prefixes this workload bypasses (they read 0).
    const BYPASSED: &'static [&'static str];
    /// Generates inputs and references from `seed` and warms up.
    fn setup(seed: u64) -> Result<Self, String>;
    /// Runs requests for `cfg.seconds`, recording metrics into `report`.
    fn run(&mut self, cfg: &RunConfig, report: &mut Report);
}

fn drive<W: Workload>(seed: u64, cfg: &RunConfig) -> Report {
    let mut report = Report::default();
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut state = None;
    for _ in 0..SETUP_REPS {
        // Release the previous set-up's inputs before building the next.
        drop(state.take());
        let start = Instant::now();
        match W::setup(seed) {
            Ok(w) => state = Some(w),
            Err(e) => {
                report.fail(format!("set-up: {e}"));
                return report;
            }
        }
        setups.push(start.elapsed().as_secs_f64());
    }
    report.set("setup_s", trace::percentile(&setups, 50.0));
    let mut w = state.expect("at least one set-up ran");
    w.run(cfg, &mut report);
    report.set("peak_rss_mb", peak_rss_mb());
    if let Some(&u) = report.metrics.get("trace.unattributed_frac") {
        if u > UNATTRIBUTED_BOUND {
            report.fail(format!(
                "trace.unattributed_frac {u} exceeds {UNATTRIBUTED_BOUND}"
            ));
        }
    }
    for (name, _) in PER_LAYER.iter().filter(|_| cfg.trace) {
        if !report.metrics.contains_key(*name) {
            assert!(
                W::BYPASSED.iter().any(|p| name.starts_with(p)),
                "per-layer metric {name} was not measured"
            );
        }
    }
    report
}

/// Peak resident set size of this process in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Aggregate `(steal, total)` CPU ticks from `/proc/stat`, if readable.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|v| v.parse().ok())
        .collect::<Option<_>>()?;
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// CPU model, SIMD arm, runtime workers and `nproc` of this host, plus
/// the share of CPU time the hypervisor stole since `start` (host
/// contention that slows every timing; `null` where unknown).
fn fingerprint(start: Option<(u64, u64)>) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| std::env::consts::ARCH.to_string());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let steal = match (start, cpu_ticks()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
            format!("{}", (s1 - s0) as f64 / (t1 - t0) as f64)
        }
        _ => "null".to_string(),
    };
    format!(
        "{{\"host\": {{\"cpu\": {}, \"simd\": {}, \"runtime_workers\": {}, \"nproc\": {}, \"steal_frac\": {steal}}}}}",
        json_str(&cpu),
        json_str(&format!("{:?}", turbo_tensor::simd_level())),
        counters::pool_workers(),
        nproc
    )
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload: get("--workload")?,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other}")),
        },
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: --workload <durable_chat|long_prompt|serve_sim> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let cfg = RunConfig {
        seconds: args.seconds,
        trace: args.trace,
    };
    let ticks = cpu_ticks();
    let report = match args.workload.as_str() {
        "durable_chat" => drive::<chat::DurableChat>(args.seed, &cfg),
        "long_prompt" => drive::<long_prompt::LongPrompt>(args.seed, &cfg),
        "serve_sim" => drive::<serve_sim::ServeSim>(args.seed, &cfg),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    for e in &report.errors {
        eprintln!("perfbench: correctness check failed: {e}");
    }
    let spec = if args.trace { PER_LAYER } else { END_TO_END };
    let mut correct = report.failed == 0 && report.attempted > 0;
    let mut fields = Vec::with_capacity(spec.len());
    for (name, unit) in spec {
        let value = report.metrics.get(*name).copied().unwrap_or(0.0);
        if !value.is_finite() {
            eprintln!("perfbench: metric {name} is not finite");
            correct = false;
        }
        eprintln!("{name:>40} {value:>16.6} {unit}");
        let value = if value.is_finite() { value } else { 0.0 };
        fields.push(format!(
            "{}: {{\"value\": {value}, \"unit\": {}}}",
            json_str(name),
            json_str(unit)
        ));
    }
    println!("{}", fingerprint(ticks));
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed.max(usize::from(!correct)),
        fields.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
