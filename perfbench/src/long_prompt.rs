//! `long_prompt`: the tiled FlashQ prefill (Algorithm 1) over a long
//! causal prompt, then a short decode over the ~1k-token cache.
//!
//! One closed-loop client. Each request takes one 16-head layer with
//! d = 64 and a 1024-token prompt whose keys carry channel outliers on
//! half the heads, assigns per-head bits (8 INT2 heads by priority), runs
//! the layer prefill (TTFT), then 32 layer decode steps. Timed requests
//! run `prefill_layer` / `decode_layer` on the calling thread;
//! `prefill_layer_parallel` / `decode_layer_parallel` on a pool must
//! match them bit for bit, and the prefill must stay within
//! `ATTN_REL_ERR_BOUND` of exact f32 FlashAttention on the checked
//! heads. The traced run times
//! `turbo_prefill_head` per head, and per decode step and head the
//! `append` and `turbo_attend_cache` calls that `decode_layer_parallel`
//! makes.

use crate::counters::{pool_workers, set_cache_stats, PoolMeter};
use crate::trace::{ms, percentile, Tracer};
use crate::{kernels, Report, RunConfig, Workload};
use std::time::{Duration, Instant};
use turbo_attention::{
    flash_attention, select_two_bit_heads, turbo_attend_cache, turbo_prefill_head, HeadStats,
    Masking, SelectionMethod, TurboAttention, TurboConfig,
};
use turbo_kvcache::{HeadKvCache, KvCacheConfig, LayerKvCache};
use turbo_model::outliers::ChannelOutliers;
use turbo_quant::BitWidth;
use turbo_runtime::Runtime;
use turbo_tensor::{Matrix, TensorRng};

const HEADS: usize = 16;
const D: usize = 64;
const PROMPT: usize = 1024;
const DECODE: usize = 32;
const TWO_BIT_HEADS: usize = 8;
const OUTLIER_HEADS: usize = 8;
/// Distinct seeded inputs; requests cycle through them.
const INPUT_SETS: usize = 2;
const MIN_REQUESTS: usize = 5;
/// Correctness bound on the prefill's relative L2 error against exact
/// f32 attention over the checked heads. The outlier head dominates it:
/// seeds 1–11 measure 0.064–0.083 combined, about 0.02 on a plain head
/// alone.
const ATTN_REL_ERR_BOUND: f64 = 0.12;

const STAGES: &[&str] = &["select", "prefill_head", "append", "attend"];
const SELECT: usize = 0;
const PREFILL: usize = 1;
const APPEND: usize = 2;
const ATTEND: usize = 3;

struct Input {
    qs: Vec<Matrix>,
    ks: Vec<Matrix>,
    vs: Vec<Matrix>,
    /// Per head, one decode row per step.
    dq: Vec<Matrix>,
    dk: Vec<Matrix>,
    dv: Vec<Matrix>,
    bits: Vec<BitWidth>,
    /// Serial `prefill_layer` outputs and `decode_layer` outputs per step.
    ref_prefill: Vec<Matrix>,
    ref_decode: Vec<Vec<Vec<f32>>>,
    rel_err: f64,
}

impl Input {
    fn step_rows(&self, step: usize) -> [Vec<&[f32]>; 3] {
        [&self.dq, &self.dk, &self.dv].map(|m| m.iter().map(|h| h.row(step)).collect())
    }
}

fn select_bits(ks: &[Matrix]) -> Vec<BitWidth> {
    let stats: Vec<HeadStats> = ks.iter().map(HeadStats::from_activations).collect();
    select_two_bit_heads(&stats, TWO_BIT_HEADS, SelectionMethod::Priority)
}

struct EngineRun {
    ttft: Duration,
    tpot: Vec<Duration>,
    total: Duration,
    layer: LayerKvCache,
}

pub struct LongPrompt {
    engine: TurboAttention,
    inputs: Vec<Input>,
}

impl LongPrompt {
    fn build_input(&self, rng: &mut TensorRng) -> Result<Input, String> {
        let heads = |rng: &mut TensorRng, n: usize| -> Vec<Matrix> {
            (0..HEADS).map(|_| rng.normal(n, D, 0.0, 1.0)).collect()
        };
        let qs = heads(rng, PROMPT);
        let mut ks = heads(rng, PROMPT);
        let vs = heads(rng, PROMPT);
        let outliers = rng.distinct_indices(HEADS, OUTLIER_HEADS);
        for &h in &outliers {
            ks[h] = ChannelOutliers::random(D, 4, 20.0, rng).apply(&ks[h]);
        }
        let (dq, dk, dv) = (heads(rng, DECODE), heads(rng, DECODE), heads(rng, DECODE));
        let bits = select_bits(&ks);
        let (ref_prefill, mut layer) = self.engine.prefill_layer(&qs, &ks, &vs, &bits);

        // Exact f32 FlashAttention on one outlier head and one plain head.
        let plain = (0..HEADS)
            .find(|h| !outliers.contains(h))
            .expect("a plain head");
        let (mut num, mut den) = (0.0f64, 0.0f64);
        for h in [outliers[0], plain] {
            let exact = flash_attention(&qs[h], &ks[h], &vs[h], Masking::Causal, 64, 64);
            for (&a, &b) in ref_prefill[h].as_slice().iter().zip(exact.as_slice()) {
                num += f64::from(a - b).powi(2);
                den += f64::from(b).powi(2);
            }
        }
        let rel_err = (num / den).sqrt();
        if rel_err.is_nan() || rel_err >= ATTN_REL_ERR_BOUND {
            return Err(format!(
                "prefill relative error {rel_err} exceeds {ATTN_REL_ERR_BOUND}"
            ));
        }
        let mut input = Input {
            qs,
            ks,
            vs,
            dq,
            dk,
            dv,
            bits,
            ref_prefill,
            ref_decode: Vec::with_capacity(DECODE),
            rel_err,
        };
        for step in 0..DECODE {
            let [q, k, v] = input.step_rows(step);
            let y = self.engine.decode_layer(&q, &k, &v, &mut layer);
            input.ref_decode.push(y);
        }
        Ok(input)
    }

    /// One request on input set `index`: the serial layer calls on the
    /// calling thread when `rt` is `None`, else the parallel ones on `rt`.
    fn engine_request(&self, index: usize, rt: Option<&Runtime>) -> Result<EngineRun, String> {
        let input = &self.inputs[index % INPUT_SETS];
        let start = Instant::now();
        let bits = select_bits(&input.ks);
        let t = Instant::now();
        let (outs, mut layer) = match rt {
            None => self
                .engine
                .prefill_layer(&input.qs, &input.ks, &input.vs, &bits),
            Some(rt) => self
                .engine
                .prefill_layer_parallel_on(rt, &input.qs, &input.ks, &input.vs, &bits),
        };
        let ttft = t.elapsed();
        let mut tpot = Vec::with_capacity(DECODE);
        let mut decoded = Vec::with_capacity(DECODE);
        for step in 0..DECODE {
            let [q, k, v] = input.step_rows(step);
            let t = Instant::now();
            decoded.push(match rt {
                None => self.engine.decode_layer(&q, &k, &v, &mut layer),
                Some(rt) => self
                    .engine
                    .decode_layer_parallel_on(rt, &q, &k, &v, &mut layer),
            });
            tpot.push(t.elapsed());
        }
        let total = start.elapsed();
        if bits != input.bits {
            return Err("head bit assignment changed between runs".into());
        }
        if outs != input.ref_prefill {
            return Err("layer prefill differs from the serial prefill_layer reference".into());
        }
        if decoded != input.ref_decode {
            return Err("layer decode differs from the serial decode_layer reference".into());
        }
        Ok(EngineRun {
            ttft,
            tpot,
            total,
            layer,
        })
    }

    /// Serial per-head replay of one request; returns the prefill and
    /// decode outputs, and per-head decode times (append + attend, µs).
    #[allow(clippy::type_complexity)]
    fn replay(
        &self,
        tr: &mut Tracer,
        input: &Input,
        flushes: &mut usize,
    ) -> (Vec<Matrix>, Vec<Vec<Vec<f32>>>, Vec<f64>) {
        let cfg = *self.engine.config();
        let sas = self.engine.sas();
        tr.section(|tr| {
            let bits = tr.span(SELECT, || select_bits(&input.ks));
            let mut outs = Vec::with_capacity(HEADS);
            let mut caches = Vec::with_capacity(HEADS);
            for (h, &b) in bits.iter().enumerate() {
                let (out, cache) = tr.span(PREFILL, || {
                    let mut cache = HeadKvCache::new(
                        D,
                        KvCacheConfig {
                            bits: b,
                            group_size: cfg.group_size,
                            buffer_capacity: cfg.buffer_capacity,
                        },
                    );
                    let out = turbo_prefill_head(
                        &input.qs[h],
                        &input.ks[h],
                        &input.vs[h],
                        cfg.masking,
                        sas,
                        cfg.block_r,
                        cfg.block_c,
                        &mut cache,
                    );
                    (out.output, cache)
                });
                outs.push(out);
                caches.push(cache);
            }
            let mut layer = LayerKvCache::from_heads(caches);
            let mut decoded = Vec::with_capacity(DECODE);
            let mut head_us = Vec::with_capacity(DECODE * HEADS);
            for step in 0..DECODE {
                let [q, k, v] = input.step_rows(step);
                let mut ys = Vec::with_capacity(HEADS);
                for (h, head) in layer.iter_mut().enumerate() {
                    let blocks = head.resident_blocks().len();
                    tr.span(APPEND, || head.append(k[h], v[h]));
                    *flushes += usize::from(head.resident_blocks().len() > blocks);
                    ys.push(tr.span(ATTEND, || turbo_attend_cache(q[h], head, sas)));
                    head_us.push(tr.last_us(APPEND) + tr.last_us(ATTEND));
                }
                decoded.push(ys);
            }
            (outs, decoded, head_us)
        })
    }
}

impl Workload for LongPrompt {
    const BYPASSED: &'static [&'static str] = &[
        "recover_ms",
        "sim_req_s",
        "attention.project_us_p50",
        "layer_wal.",
        "runtime.peak_in_flight",
        "gpusim.",
    ];

    fn setup(seed: u64) -> Result<Self, String> {
        let mut rng = TensorRng::new(seed);
        let mut w = Self {
            engine: TurboAttention::new(TurboConfig::default()),
            inputs: Vec::with_capacity(INPUT_SETS),
        };
        for _ in 0..INPUT_SETS {
            let input = w.build_input(&mut rng)?;
            w.inputs.push(input);
        }
        w.engine_request(0, None)?;
        // The parallel layer calls on a pool must equal the serial ones.
        w.engine_request(1, Some(&Runtime::with_workers(pool_workers())))?;
        Ok(w)
    }

    fn run(&mut self, cfg: &RunConfig, report: &mut Report) {
        let (mut ttft, mut tpot, mut req) = (Vec::new(), Vec::new(), Vec::new());
        let mut tok_s = Vec::new();
        let mut tr = Tracer::new(STAGES);
        let mut head_us = Vec::new();
        let mut meter = cfg.trace.then(PoolMeter::new);
        let mut serial_wall = Duration::ZERO;
        let mut traced = 0usize;
        let mut flushes = 0usize;
        let mut last_layer = None;
        let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds);
        for index in 0.. {
            if Instant::now() >= deadline && report.attempted >= MIN_REQUESTS {
                break;
            }
            let run = match self.engine_request(index, None) {
                Ok(run) => run,
                Err(e) => {
                    report.request(Err(e));
                    continue;
                }
            };
            ttft.push(ms(run.ttft));
            tpot.extend(run.tpot.iter().map(|&d| ms(d)));
            req.push(ms(run.total));
            let timed = run.ttft + run.tpot.iter().sum::<Duration>();
            tok_s.push((PROMPT + DECODE) as f64 / timed.as_secs_f64());
            let Some(meter) = meter.as_mut() else {
                report.request(Ok(()));
                continue;
            };
            // The same input through the parallel layer calls on the
            // metered pool, checked against the same serial reference.
            if let Err(e) = meter.measure(|rt| self.engine_request(index, Some(rt))) {
                report.request(Err(e));
                continue;
            }
            serial_wall += run.total;
            let input = &self.inputs[index % INPUT_SETS];
            let (outs, decoded, us) = self.replay(&mut tr, input, &mut flushes);
            head_us.extend(us);
            traced += 1;
            last_layer = Some(run.layer);
            report.request(
                if outs != input.ref_prefill || decoded != input.ref_decode {
                    Err("traced per-head replay differs from the layer engine".into())
                } else {
                    Ok(())
                },
            );
        }
        report.requests(cfg.trace, &ttft, &tpot, &req, &tok_s);
        let Some(meter) = meter else {
            return;
        };
        report.set(
            "attn_rel_err",
            self.inputs.iter().map(|i| i.rel_err).fold(0.0, f64::max),
        );
        let t = traced.max(1) as f64;
        meter.report(report, t, None);
        report.set(
            "attention.prefill_head_ms_p50",
            tr.us("prefill_head", 50.0) / 1e3,
        );
        report.set("attention.decode_head_us_p50", percentile(&head_us, 50.0));
        report.set("attention.attend_us_p50", tr.us("attend", 50.0));
        report.set("attention.attend_calls", tr.calls("attend") as f64 / t);
        report.set("kvcache.append_us_p50", tr.us("append", 50.0));
        report.set("kvcache.append_us_p99", tr.us("append", 99.0));
        report.set("kvcache.flushes", flushes as f64 / t);
        if let Some(layer) = &last_layer {
            set_cache_stats(report, &[layer], PROMPT + DECODE);
        }

        // Computed from tensor shapes under the causal 64 × 64 tile
        // schedule: each visited (query block, key tile) pair runs a
        // 64×64×64 QKᵀ and PV GEMM on four 64×64 i8 operands and 64×64
        // SAS exponentials; each decode attend over `c` tokens runs
        // 2·c·d MACs on 2·c·d + d + c i8 bytes and c exponentials.
        let (br, bc) = (64u64, 64u64);
        let d = D as u64;
        let blocks = PROMPT as u64 / br;
        let pairs = blocks * (blocks + 1) / 2;
        let heads = HEADS as u64;
        let mut macs = heads * pairs * 2 * br * bc * d;
        let mut bytes = heads * pairs * (2 * br * d + 2 * bc * d);
        let mut exps = heads * pairs * br * bc;
        for step in 1..=DECODE as u64 {
            let c = PROMPT as u64 + step;
            macs += heads * 2 * c * d;
            bytes += heads * (2 * c * d + d + c);
            exps += heads * c;
        }
        report.set("tensor.i8_macs", macs as f64);
        report.set("tensor.bytes_moved", bytes as f64);
        report.set("softmax.exp_evals", exps as f64);
        kernels::measure(report);

        report.set("trace.unattributed_frac", tr.unattributed_frac());
        report.set(
            "trace.overhead_frac",
            tr.wall_s() / serial_wall.as_secs_f64() - 1.0,
        );
    }
}
