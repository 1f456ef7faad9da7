//! `serve_sim`: the modeled plane. `gpusim::sched`'s continuous-batching
//! scheduler on Phi-3-medium and an A100-80GB cost model.
//!
//! Seeded open-loop traces in modeled time, 512 requests each with a
//! 1024-token prompt and 128 generated tokens and Poisson arrivals:
//! four traces at 4 req/s (below saturation) and four at 16 req/s
//! (backlogged). Every trace runs for `Turbo{kv_bits: 3}` and
//! `FlashFp16`. Four traces per rate keep the work of a run close to the
//! same from seed to seed. The wall-clock loop is closed; one request is
//! one round of all sixteen simulations, one after another. Only the
//! scheduler runs here: no kernel, cache or WAL code. Modeled outputs are
//! reported as modeled (`gpusim.modeled_*`), never as wall time, and must
//! repeat exactly on every simulation.

use crate::trace::{ms, percentile, Tracer};
use crate::{Report, RunConfig, Workload};
use std::time::{Duration, Instant};
use turbo_gpusim::{
    simulate_serving_continuous, uniform_workload, AttnMethod, GpuSpec, ModelGeometry, RequestSpec,
    SchedulerStats, ServingPolicy,
};

const REQUESTS: usize = 512;
const PROMPT: usize = 1024;
const GEN: usize = 128;
const TRACES_PER_RATE: usize = 4;
const RATES: [(f64, &str); 2] = [(4.0, "r4"), (16.0, "r16")];
const METHODS: [(AttnMethod, &str); 2] = [
    (AttnMethod::Turbo { kv_bits: 3.0 }, "turbo3"),
    (AttnMethod::FlashFp16, "fp16"),
];
const MIN_REQUESTS: usize = 5;

/// One method at one arrival rate, over that rate's traces.
struct Case {
    method: AttnMethod,
    /// `<method>.<rate>`, the suffix of the modeled metric names.
    label: String,
    /// The first simulation of each trace, which every later one must
    /// repeat exactly.
    references: Vec<(usize, SchedulerStats)>,
}

impl Case {
    /// Mean of a modeled quantity over the case's traces.
    fn modeled(&self, f: impl Fn(&SchedulerStats) -> f64) -> f64 {
        self.references.iter().map(|(_, s)| f(s)).sum::<f64>() / self.references.len() as f64
    }
}

pub struct ServeSim {
    gpu: GpuSpec,
    geom: ModelGeometry,
    policy: ServingPolicy,
    traces: Vec<Vec<RequestSpec>>,
    /// `turbo3.r4` first: its traces are a round's first results.
    cases: Vec<Case>,
}

impl ServeSim {
    fn simulate(&self, method: AttnMethod, trace: usize) -> SchedulerStats {
        simulate_serving_continuous(
            &self.gpu,
            &self.geom,
            method,
            &self.traces[trace],
            &self.policy,
            None,
        )
    }

    /// Ledger and repeatability check of one simulation.
    fn check(
        label: &str,
        reference: &SchedulerStats,
        stats: &SchedulerStats,
    ) -> Result<(), String> {
        let s = &stats.serving;
        if s.completed + s.truncated + s.rejected != REQUESTS {
            return Err(format!(
                "{label}: ledger {} + {} + {} != {REQUESTS}",
                s.completed, s.truncated, s.rejected
            ));
        }
        if stats != reference {
            return Err(format!("{label}: simulation did not repeat exactly"));
        }
        Ok(())
    }

    /// Runs every simulation of `case` once, checking each; returns the
    /// modeled steps, generated tokens and prompt plus generated tokens.
    fn run_case(&self, case: &Case, check: &mut Result<(), String>) -> [usize; 3] {
        let mut counts = [0; 3];
        for (trace, reference) in &case.references {
            let stats = self.simulate(case.method, *trace);
            let s = &stats.serving;
            counts[0] += stats.steps.len();
            counts[1] += s.generated_tokens;
            counts[2] += PROMPT * (s.completed + s.truncated) + s.generated_tokens;
            if check.is_ok() {
                *check = Self::check(&case.label, reference, &stats);
            }
        }
        counts
    }
}

impl Workload for ServeSim {
    const BYPASSED: &'static [&'static str] = &[
        "recover_ms",
        "attn_rel_err",
        "attention.",
        "kvcache.",
        "layer_wal.",
        "runtime.",
        "tensor.",
        "softmax.",
        "quant.",
    ];

    fn setup(seed: u64) -> Result<Self, String> {
        let mut traces = Vec::with_capacity(RATES.len() * TRACES_PER_RATE);
        for &(rate, _) in &RATES {
            for _ in 0..TRACES_PER_RATE {
                let trace_seed = seed.wrapping_mul(64).wrapping_add(traces.len() as u64);
                traces.push(uniform_workload(REQUESTS, rate, PROMPT, GEN, trace_seed));
            }
        }
        let mut w = Self {
            gpu: GpuSpec::a100_80gb(),
            geom: ModelGeometry::phi3_medium(),
            policy: ServingPolicy::default(),
            traces,
            cases: Vec::new(),
        };
        for (method, m) in METHODS {
            for (r, (_, rate)) in RATES.iter().enumerate() {
                let label = format!("{m}.{rate}");
                let mut references = Vec::with_capacity(TRACES_PER_RATE);
                for trace in r * TRACES_PER_RATE..(r + 1) * TRACES_PER_RATE {
                    let reference = w.simulate(method, trace);
                    // The second simulation is the warm-up and the first
                    // repeatability check.
                    Self::check(&label, &reference, &w.simulate(method, trace))?;
                    references.push((trace, reference));
                }
                w.cases.push(Case {
                    method,
                    label,
                    references,
                });
            }
        }
        Ok(w)
    }

    fn run(&mut self, cfg: &RunConfig, report: &mut Report) {
        let (mut first, mut tpot, mut round_ms, mut tok_s) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let (mut wall, mut steps) = (Duration::ZERO, 0usize);
        let mut tr = Tracer::new(&["simulate"]);
        let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds);
        while Instant::now() < deadline || report.attempted < MIN_REQUESTS {
            let mut check = Ok(());
            let mut round = [0; 3];
            let start = Instant::now();
            for (i, case) in self.cases.iter().enumerate() {
                let counts = self.run_case(case, &mut check);
                if i == 0 {
                    first.push(ms(start.elapsed()));
                }
                for (r, c) in round.iter_mut().zip(counts) {
                    *r += c;
                }
            }
            let dt = start.elapsed();
            wall += dt;
            steps += round[0];
            round_ms.push(ms(dt));
            tok_s.push(round[2] as f64 / dt.as_secs_f64());
            tpot.push(ms(dt) / round[1] as f64);
            if cfg.trace {
                tr.section(|tr| {
                    for case in &self.cases {
                        tr.span(0, || self.run_case(case, &mut check));
                    }
                });
            }
            report.request(check);
        }
        let n = round_ms.len().max(1) as f64;
        report.requests(cfg.trace, &first, &tpot, &round_ms, &tok_s);
        if !cfg.trace {
            return;
        }
        let sims = (self.cases.len() * TRACES_PER_RATE) as f64;
        report.set("sim_req_s", n * sims * REQUESTS as f64 / wall.as_secs_f64());
        report.set("gpusim.sim_ms_p50", percentile(&round_ms, 50.0) / sims);
        report.set("gpusim.steps", steps as f64 / n);
        report.set("gpusim.step_us", wall.as_secs_f64() * 1e6 / steps as f64);
        for case in &self.cases {
            let name = |metric: &str| format!("gpusim.{metric}.{}", case.label);
            report.set(
                name("modeled_tok_s"),
                case.modeled(|s| s.serving.throughput),
            );
            report.set(name("modeled_ttft_p95_s"), case.modeled(|s| s.p95_ttft));
            report.set(
                name("modeled_peak_batch"),
                case.modeled(|s| s.serving.peak_batch as f64),
            );
            report.set(
                name("rejected"),
                case.modeled(|s| s.serving.rejected as f64),
            );
        }
        for (_, r) in RATES {
            let tok_s = |m: &str| {
                let case = self
                    .cases
                    .iter()
                    .find(|c| c.label == format!("{m}.{r}"))
                    .expect("modeled case");
                case.modeled(|s| s.serving.throughput)
            };
            report.set(
                format!("gpusim.modeled_tok_s_ratio.{r}"),
                tok_s("turbo3") / tok_s("fp16"),
            );
        }
        report.set("trace.unattributed_frac", tr.unattributed_frac());
        report.set(
            "trace.overhead_frac",
            tr.wall_s() / wall.as_secs_f64() - 1.0,
        );
    }
}
